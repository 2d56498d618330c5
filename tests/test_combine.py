"""Tests for combined-metric best-k selection."""

import numpy as np
import pytest

from repro.core import best_kcore_set, build_core_forest, order_vertices
from repro.core.combine import (
    combined_kcore_scores,
    combined_kcore_set_scores,
)
from repro.generators import coauthorship_graph
from repro.graph import Graph


class TestValidation:
    def test_empty_metric_list(self, figure2):
        with pytest.raises(ValueError):
            combined_kcore_set_scores(figure2, [])

    def test_negative_weight(self, figure2):
        with pytest.raises(ValueError):
            combined_kcore_set_scores(figure2, [("ad", -1.0)])

    def test_all_zero_weights(self, figure2):
        with pytest.raises(ValueError):
            combined_kcore_set_scores(figure2, [("ad", 0.0), ("con", 0.0)])

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            combined_kcore_set_scores(Graph.empty(0), [("ad", 1.0)])


class TestSingleMetricReduction:
    @pytest.mark.parametrize("metric", ("ad", "mod", "cc"))
    def test_one_metric_equals_plain_best_k(self, figure2, metric):
        combined = combined_kcore_set_scores(figure2, [(metric, 1.0)])
        plain = best_kcore_set(figure2, metric)
        assert combined.k == plain.k

    def test_weight_scaling_is_irrelevant_for_one_metric(self, figure2):
        a = combined_kcore_set_scores(figure2, [("ad", 1.0)])
        b = combined_kcore_set_scores(figure2, [("ad", 100.0)])
        assert a.k == b.k
        np.testing.assert_allclose(a.combined, b.combined, equal_nan=True)


class TestCombination:
    def test_profiles_exposed_raw(self, figure2):
        result = combined_kcore_set_scores(figure2, [("ad", 1.0), ("con", 1.0)])
        assert set(result.profiles) == {"average_degree", "conductance"}
        # Raw average-degree profile, not normalised.
        assert result.profiles["average_degree"][3] == pytest.approx(3.0)

    def test_combined_bounded_zero_one(self, figure2):
        result = combined_kcore_set_scores(figure2, [("ad", 2.0), ("mod", 1.0)])
        finite = result.combined[~np.isnan(result.combined)]
        assert (finite >= -1e-12).all() and (finite <= 1 + 1e-12).all()

    def test_interpolates_between_extremes(self, figure2):
        # ad alone picks k=2; den alone picks k=3; the combination must
        # pick one of the two (never something neither endorses).
        result = combined_kcore_set_scores(figure2, [("ad", 1.0), ("den", 1.0)])
        assert result.k in (2, 3)

    def test_heavily_weighted_metric_dominates(self, figure2):
        result = combined_kcore_set_scores(figure2, [("den", 100.0), ("con", 1.0)])
        assert result.k == best_kcore_set(figure2, "den").k


class TestSingleCoreCombination:
    def test_cohesion_plus_isolation_picks_a_planted_structure(self):
        """The paper's motivating use: cr/con alone collapse to tiny k and
        cohesion alone ignores isolation — the combination must settle on
        one of the two planted communities, which are the only cores that
        score highly on BOTH axes."""
        net = coauthorship_graph(num_background_authors=900, num_papers=1100,
                                 num_topics=14, seed=21)
        result = combined_kcore_scores(
            net.graph, [("average_degree", 1.0), ("conductance", 1.0)]
        )
        forest = build_core_forest(net.graph)
        winner = set(forest.component_vertices(result.node_id).tolist())
        lab = set(net.lab.tolist())
        isolated = set(net.isolated_group.tolist())
        assert winner in (lab, isolated)
        # Neither single metric would have picked a background core either
        # way; the combination keeps the winner deep.
        assert result.k >= 9

    def test_reduces_to_single_metric(self, figure2):
        from repro.core import best_single_kcore
        combined = combined_kcore_scores(figure2, [("cc", 1.0)])
        plain = best_single_kcore(figure2, "cc")
        assert combined.k == plain.k

    def test_shared_index_reuse(self, figure2):
        ordered = order_vertices(figure2)
        forest = build_core_forest(figure2)
        result = combined_kcore_scores(
            figure2, [("ad", 1.0), ("con", 1.0)], ordered=ordered, forest=forest
        )
        assert len(result.combined) == forest.num_nodes
