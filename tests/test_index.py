"""Tests for the shared :class:`repro.index.BestKIndex`.

Three pillars:

* **Bit-identity** — every answer served from a warm index equals the
  corresponding from-scratch entry point, for every metric and both best-k
  problems (the index is purely a performance object).
* **Build-at-most-once** — the expensive builders run at most one time no
  matter how many metrics are queried (counted via monkeypatched builders).
* **Laziness** — querying only the O(m) metrics never triggers the
  O(m^1.5) triangle pass; the forest is only built for single-core queries.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.index.bestk_index as bi
from repro import BestKIndex
from repro.core import (
    PAPER_METRICS,
    best_kcore_set,
    best_single_kcore,
    get_metric,
    kcore_scores,
    kcore_set_scores,
)
from repro.graph import Graph
from repro.truss import best_ktruss_set, ktruss_set_scores
from repro.weighted import best_s_core_set, s_core_set_scores

from conftest import random_graph

NON_TRIANGLE_METRICS = tuple(
    m for m in PAPER_METRICS if not get_metric(m).requires_triangles
)


@pytest.fixture(scope="module")
def graph() -> Graph:
    return random_graph(160, 900, seed=11)


@pytest.fixture()
def index(graph) -> BestKIndex:
    return BestKIndex(graph)


class TestBitIdentity:
    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_set_scores_match_from_scratch(self, graph, index, metric):
        fresh = kcore_set_scores(graph, metric)
        warm = index.set_scores(metric)
        assert np.array_equal(fresh.scores, warm.scores, equal_nan=True)
        assert fresh.values == warm.values

    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_core_scores_match_from_scratch(self, graph, index, metric):
        fresh = kcore_scores(graph, metric)
        warm = index.core_scores(metric)
        assert np.array_equal(fresh.scores, warm.scores, equal_nan=True)
        assert fresh.values == warm.values

    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_best_set_matches(self, graph, index, metric):
        fresh = best_kcore_set(graph, metric)
        warm = index.best_set(metric)
        assert fresh.k == warm.k
        assert fresh.score == warm.score
        assert np.array_equal(fresh.vertices, warm.vertices)

    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_best_core_matches(self, graph, index, metric):
        fresh = best_single_kcore(graph, metric)
        warm = index.best_core(metric)
        assert (fresh.k, fresh.node_id, fresh.score) == (warm.k, warm.node_id, warm.score)
        assert np.array_equal(fresh.vertices, warm.vertices)

    def test_second_query_returns_same_object(self, index):
        assert index.set_scores("ad") is index.set_scores("average_degree")
        assert index.core_scores("con") is index.core_scores("conductance")

    def test_truss_scores_match(self, graph, index):
        fresh = ktruss_set_scores(graph, "average_degree")
        warm = ktruss_set_scores(graph, "average_degree", index=index)
        assert np.array_equal(fresh.scores, warm.scores, equal_nan=True)
        assert warm is index.truss_set_scores("average_degree")
        f = best_ktruss_set(graph, "average_degree")
        w = best_ktruss_set(graph, "average_degree", index=index)
        assert f.k == w.k and np.array_equal(f.vertices, w.vertices)

    def test_weighted_scores_match(self, graph, index):
        weights = np.random.default_rng(3).lognormal(size=graph.num_edges)
        fresh = s_core_set_scores(graph, weights, "weighted_average_degree")
        warm = s_core_set_scores(graph, weights, "weighted_average_degree", index=index)
        assert np.array_equal(fresh.scores, warm.scores, equal_nan=True)
        f = best_s_core_set(graph, weights, "weighted_average_degree")
        w = best_s_core_set(graph, weights, "weighted_average_degree", index=index)
        assert f.s == w.s and np.array_equal(f.vertices, w.vertices)
        # Cached by identity: same array object, no rebuild.
        assert index.weighted_decomposition(weights) is index.weighted_decomposition(weights)


class TestEntryPointPassthrough:
    def test_kcore_set_scores_index_param(self, graph, index):
        assert kcore_set_scores(graph, "ad", index=index) is index.set_scores("ad")

    def test_kcore_scores_index_param(self, graph, index):
        assert kcore_scores(graph, "ad", index=index) is index.core_scores("ad")

    def test_best_entry_points_index_param(self, graph, index):
        assert best_kcore_set(graph, "mod", index=index).k == index.best_set("mod").k
        assert best_single_kcore(graph, "mod", index=index).k == index.best_core("mod").k


def _count_calls(monkeypatch, name: str) -> list:
    """Wrap builder ``name`` in :mod:`repro.index.bestk_index`, counting calls."""
    calls: list = []
    original = getattr(bi, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(bi, name, counted)
    return calls


#: Module-level builders the index must run at most once.  Generic family
#: artifacts (decompose, totals, level accumulations) route through
#: :class:`repro.engine.HierarchyFamily` hooks and are covered by the
#: artifact-cache assertions instead.
BUILDERS = (
    "order_vertices",
    "build_core_forest",
    "triangles_by_min_rank_vertex",
    "forest_base_totals",
    "forest_triangle_totals",
)


class TestLaziness:
    """Build-count and laziness assertions.

    These pin ``jobs=1, store=False``: the assertions are about *this
    process's* builders, so an inherited ``REPRO_JOBS``/``REPRO_CACHE_DIR``
    (the CI matrix sets both) must not satisfy them from a worker or a
    warm disk bundle.  The bit-identity tests above deliberately stay on
    the defaults so that same matrix exercises the parallel/store paths.
    """

    def test_nothing_built_up_front(self, graph):
        index = BestKIndex(graph, jobs=1, store=False)
        assert index.built_artifacts() == ()
        assert index.build_seconds == {}

    def test_each_builder_runs_at_most_once(self, graph, monkeypatch):
        counters = {name: _count_calls(monkeypatch, name) for name in BUILDERS}
        index = BestKIndex(graph, jobs=1, store=False)
        for _ in range(2):  # everything twice: second pass must be free
            index.score_set_all_metrics(PAPER_METRICS)
            index.score_cores_all_metrics(PAPER_METRICS)
            index.best_set("average_degree")
            index.best_core("average_degree")
        for name, calls in counters.items():
            assert len(calls) == 1, f"{name} built {len(calls)} times"

    def test_non_triangle_metrics_skip_triangle_pass(self, graph, monkeypatch):
        tri_calls = _count_calls(monkeypatch, "triangles_by_min_rank_vertex")
        index = BestKIndex(graph, jobs=1, store=False)
        for metric in NON_TRIANGLE_METRICS:
            index.set_scores(metric)
            index.core_scores(metric)
        assert tri_calls == []
        assert "core:triangles" not in index.built_artifacts()
        # First triangle metric triggers exactly one charging pass, reused
        # by both the shell and the forest aggregation.
        index.set_scores("clustering_coefficient")
        index.core_scores("clustering_coefficient")
        assert len(tri_calls) == 1

    def test_core_metrics_share_one_values_tuple(self, graph):
        # Problem 2 builds each node's PrimaryValues once per index: one
        # tuple without triangle counts, one with them.
        index = BestKIndex(graph, jobs=1, store=False)
        scored = index.score_cores_all_metrics(PAPER_METRICS)
        plain = {id(s.values) for s in scored.values() if not s.metric.requires_triangles}
        assert len(plain) == 1
        assert scored["clustering_coefficient"].values is not scored["average_degree"].values
        assert scored["clustering_coefficient"].values[0].has_triangles
        assert index.core_scores("modularity").values is scored["average_degree"].values

    def test_set_queries_never_build_forest(self, graph):
        index = BestKIndex(graph, jobs=1, store=False)
        index.score_set_all_metrics(PAPER_METRICS)
        assert "core:forest" not in index.built_artifacts()

    def test_build_seconds_cover_built_artifacts(self, graph):
        index = BestKIndex(graph, jobs=1, store=False)
        index.set_scores("clustering_coefficient")
        assert set(index.build_seconds) == set(index.built_artifacts())
        assert all(t >= 0.0 for t in index.build_seconds.values())
        phases = index.phase_seconds()
        assert phases["forest"] == 0.0
        assert phases["triangles"] > 0.0 or index.build_seconds["core:triangles"] == 0.0
        assert index.total_build_seconds() == pytest.approx(
            sum(index.build_seconds.values())
        )


class TestBatchApis:
    def test_batch_keys_are_canonical(self, index):
        by_set = index.score_set_all_metrics(("ad", "den"))
        assert set(by_set) == {"average_degree", "internal_density"}
        by_core = index.score_cores_all_metrics(("ad",))
        assert set(by_core) == {"average_degree"}

    def test_best_all_metrics(self, graph, index):
        best = index.best_set_all_metrics(PAPER_METRICS)
        assert set(best) == set(PAPER_METRICS)
        for name, result in best.items():
            assert result.k == best_kcore_set(graph, name).k
        best_cores = index.best_core_all_metrics(("average_degree",))
        assert best_cores["average_degree"].k == best_single_kcore(graph, "average_degree").k

    def test_backend_parameter_is_honoured(self, graph):
        default = BestKIndex(graph)
        scalar = BestKIndex(graph, backend="python")
        for metric in ("average_degree", "clustering_coefficient"):
            assert np.array_equal(
                default.set_scores(metric).scores,
                scalar.set_scores(metric).scores,
                equal_nan=True,
            )

    def test_repr_mentions_built_artifacts(self, index):
        assert "built=[nothing]" in repr(index)
        index.set_scores("average_degree")
        assert "order" in repr(index)


class TestEdgeCases:
    @pytest.mark.parametrize("empty", [Graph.empty(0), Graph.empty(5)])
    def test_edgeless_graphs(self, empty):
        index = BestKIndex(empty)
        scores = index.set_scores("average_degree")
        fresh = kcore_set_scores(empty, "average_degree")
        assert np.array_equal(fresh.scores, scores.scores, equal_nan=True)

    def test_triangle_metrics_on_tiny_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        index = BestKIndex(g)
        fresh = kcore_set_scores(g, "clustering_coefficient")
        assert np.array_equal(
            fresh.scores, index.set_scores("cc").scores, equal_nan=True
        )
        assert index.best_core("cc").k == best_single_kcore(g, "cc").k
