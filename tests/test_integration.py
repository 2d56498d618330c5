"""Cross-module integration tests: full pipelines on realistic stand-ins."""

import numpy as np
import pytest

from repro import (
    PAPER_METRICS,
    best_kcore_set,
    best_level_set,
    best_single_kcore,
    core_app,
    core_decomposition,
    load_dataset,
    opt_d,
)
from repro.core import (
    baseline_kcore_scores,
    baseline_kcore_set_scores,
    build_core_forest,
    kcore_scores,
    kcore_set_scores,
    order_vertices,
)
from repro.generators import coauthorship_graph


@pytest.fixture(scope="module")
def gowalla():
    return load_dataset("G", scale=0.4)


@pytest.fixture(scope="module")
def gowalla_index(gowalla):
    decomp = core_decomposition(gowalla)
    ordered = order_vertices(gowalla, decomp)
    forest = build_core_forest(gowalla, decomp)
    return decomp, ordered, forest


class TestFullAgreementOnRealisticGraph:
    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_set_scores_all_metrics(self, gowalla, gowalla_index, metric):
        decomp, ordered, _ = gowalla_index
        fast = kcore_set_scores(gowalla, metric, ordered=ordered)
        slow = baseline_kcore_set_scores(gowalla, metric, decomposition=decomp)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)

    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_core_scores_all_metrics(self, gowalla, gowalla_index, metric):
        _, ordered, forest = gowalla_index
        fast = kcore_scores(gowalla, metric, ordered=ordered, forest=forest)
        slow = baseline_kcore_scores(gowalla, metric, forest=forest)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)

    def test_best_set_contains_best_core_k_range(self, gowalla, gowalla_index):
        _, ordered, forest = gowalla_index
        for metric in ("ad", "mod"):
            set_best = best_kcore_set(gowalla, metric, ordered=ordered)
            core_best = best_single_kcore(gowalla, metric, ordered=ordered, forest=forest)
            # The single best core always scores at least the best set
            # (each C_k is a union of cores; the max over cores dominates
            # for the per-subgraph metrics that decompose this way).
            if metric == "ad":
                assert core_best.score >= set_best.score - 1e-9


class TestBestKRelationships:
    def test_density_prefers_deepest(self, gowalla, gowalla_index):
        decomp, ordered, _ = gowalla_index
        result = best_kcore_set(gowalla, "den", ordered=ordered)
        assert result.k >= decomp.kmax - 1

    def test_conductance_prefers_shallow(self, gowalla, gowalla_index):
        _, ordered, _ = gowalla_index
        result = best_kcore_set(gowalla, "con", ordered=ordered)
        assert result.k <= 3

    def test_modularity_in_between(self, gowalla, gowalla_index):
        _, ordered, _ = gowalla_index
        mod_k = best_kcore_set(gowalla, "mod", ordered=ordered).k
        con_k = best_kcore_set(gowalla, "con", ordered=ordered).k
        den_k = best_kcore_set(gowalla, "den", ordered=ordered).k
        assert con_k <= mod_k <= den_k


class TestApplicationsPipeline:
    def test_opt_d_at_least_core_app(self, gowalla):
        assert opt_d(gowalla).avg_degree >= core_app(gowalla).avg_degree - 1e-9

    def test_truss_deeper_or_equal_to_core_metricwise(self, gowalla):
        # A k-truss is a (k-1)-core: for the same density-style metric the
        # truss hierarchy cannot top out shallower than 2.
        result = best_level_set(gowalla, "truss", "den")
        assert result.k >= 2

    def test_weighted_unit_agrees_with_unweighted_argmax(self, gowalla):
        weights = np.ones(gowalla.num_edges)
        decomp = core_decomposition(gowalla)
        weighted = best_level_set(gowalla, "weighted", "weighted_average_degree",
                                  edge_weights=weights, num_levels=decomp.kmax)
        unweighted = best_kcore_set(gowalla, "average_degree")
        assert weighted.score == pytest.approx(unweighted.score)


class TestCaseStudyPipeline:
    def test_metrics_partition_planted_structures(self):
        net = coauthorship_graph(num_background_authors=1200, num_papers=1500,
                                 num_topics=18, seed=5)
        graph = net.graph
        decomp = core_decomposition(graph)
        ordered = order_vertices(graph, decomp)
        forest = build_core_forest(graph, decomp)
        lab = set(net.lab.tolist())
        isolated = set(net.isolated_group.tolist())
        for metric in ("den", "cc"):
            best = best_single_kcore(graph, metric, ordered=ordered, forest=forest)
            assert set(best.vertices.tolist()) == lab, metric
        for metric in ("cr", "con"):
            best = best_single_kcore(graph, metric, ordered=ordered, forest=forest)
            assert set(best.vertices.tolist()) == isolated, metric
        # Average degree picks the lab (avg degree 17) unless a *denser*
        # background core legitimately beats it — either way the winner's
        # score must be at least the lab's.
        best_ad = best_single_kcore(graph, "ad", ordered=ordered, forest=forest)
        assert best_ad.score >= 17.0 - 1e-9
