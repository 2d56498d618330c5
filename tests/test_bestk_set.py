"""Tests for Problem 1: best k-core set (baseline + Algorithms 2/3)."""

import math

import numpy as np
import pytest

from repro.core import (
    PAPER_METRICS,
    baseline_kcore_set_scores,
    best_kcore_set,
    core_decomposition,
    kcore_set_scores,
    order_vertices,
)
from repro.core.naive import kcore_set_scores_naive, best_kcore_set_naive
from repro.engine import (
    accumulate_level_totals,
    triangle_level_increments,
    unweighted_level_charges,
)
from repro.graph import Graph
from conftest import random_graph, zoo_params

FAST_METRICS = ("average_degree", "internal_density", "cut_ratio", "conductance", "modularity")


class TestPaperExamples:
    def test_example4_average_degree(self, figure2):
        scores = kcore_set_scores(figure2, "average_degree")
        # 3-core set: 12 internal edges over 8 vertices -> 3.0
        assert scores.scores[3] == pytest.approx(3.0)
        # 2-core set: 19 internal edges over 12 vertices -> ~3.17
        assert scores.scores[2] == pytest.approx(2 * 19 / 12)
        assert best_kcore_set(figure2, "average_degree").k == 2

    def test_example5_clustering_coefficient(self, figure2):
        scores = kcore_set_scores(figure2, "clustering_coefficient")
        assert scores.values[3].num_triangles == 8
        assert scores.values[3].num_triplets == 24
        assert scores.values[2].num_triangles == 10
        assert scores.values[2].num_triplets == 45
        assert scores.scores[3] == pytest.approx(1.0)
        assert scores.scores[2] == pytest.approx(2 / 3)
        assert best_kcore_set(figure2, "cc").k == 3


class TestAgainstBaselineAndOracle:
    @zoo_params()
    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_optimal_equals_baseline(self, graph, metric):
        opt = kcore_set_scores(graph, metric)
        base = baseline_kcore_set_scores(graph, metric)
        np.testing.assert_allclose(opt.scores, base.scores, equal_nan=True)

    @pytest.mark.parametrize("metric", PAPER_METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_optimal_equals_naive_random(self, metric, seed):
        g = random_graph(35, 110, seed)
        opt = kcore_set_scores(g, metric)
        naive = kcore_set_scores_naive(g, metric)
        np.testing.assert_allclose(opt.scores, naive, equal_nan=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_best_k_matches_naive(self, seed):
        g = random_graph(40, 130, seed)
        for metric in ("ad", "mod", "cc"):
            result = best_kcore_set(g, metric)
            naive_k, naive_score = best_kcore_set_naive(g, metric)
            assert result.k == naive_k
            assert result.score == pytest.approx(naive_score)

    def test_use_baseline_parity(self, figure2):
        for metric in ("ad", "cc"):
            fast = best_kcore_set(figure2, metric)
            slow = best_kcore_set(figure2, metric, use_baseline=True)
            assert fast.k == slow.k
            assert fast.score == pytest.approx(slow.score)
            assert fast.vertices.tolist() == slow.vertices.tolist()


def _level_totals(ordering):
    """Algorithm 2's per-k ``(num, 2*in, out)`` totals of every ``C_k``."""
    charges = unweighted_level_charges(ordering)
    return accumulate_level_totals(*charges, ordering.order, ordering.level_start)


class TestAccumulators:
    def test_level_accumulate_totals(self, figure2):
        num, twice_in, out = _level_totals(order_vertices(figure2))
        # k = 0: the whole graph.
        assert twice_in[0] == 2 * figure2.num_edges
        assert out[0] == 0
        assert num[0] == figure2.num_vertices
        # k = kmax + 1: empty.
        assert twice_in[-1] == 0 and out[-1] == 0 and num[-1] == 0

    def test_boundary_counts(self, figure2):
        od = order_vertices(figure2)
        _, _, out = _level_totals(od)
        # The 3-core set has 5 boundary edges: (v3,v5), (v3,v6), (v9,v8)
        # leave the 3-core... count from the construction: edges with
        # exactly one endpoint of coreness 3.
        expected = sum(
            1 for u, v in figure2.edges()
            if (od.levels[u] == 3) != (od.levels[v] == 3)
        )
        assert out[3] == expected

    def test_triangle_increments_sum(self, figure2):
        view = order_vertices(figure2)
        tri_new, trip_new = triangle_level_increments(view, view.order, view.level_start)
        assert tri_new.sum() == 10  # whole graph has 10 triangles
        assert trip_new[3] == 24
        assert trip_new[2] == 21  # Example 5: 45 - 24


class TestResultObjects:
    def test_ties_break_to_largest_k(self):
        # Two disjoint triangles: every non-empty k-core set for k in {0,1,2}
        # has identical average degree 2.0; the largest k must win.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        result = best_kcore_set(g, "average_degree")
        assert result.k == 2

    def test_result_vertices_are_kcore_set(self, figure2):
        result = best_kcore_set(figure2, "cc")
        decomp = core_decomposition(figure2)
        assert result.vertices.tolist() == sorted(
            decomp.kcore_set_vertices(result.k).tolist()
        )

    def test_scores_without_triangles_have_none(self, figure2):
        scores = kcore_set_scores(figure2, "ad")
        assert scores.values[0].num_triangles is None
        assert not scores.values[0].has_triangles

    def test_kmax_property(self, figure2):
        scores = kcore_set_scores(figure2, "ad")
        assert scores.kmax == 3

    def test_empty_k_sets_are_nan_free_range(self):
        # A graph whose shells skip k = 1 and 2 entirely: scores still defined
        # for every k because C_k equals a deeper core set.
        g = Graph.from_edges([(i, j) for i in range(5) for j in range(i + 1, 5)])
        scores = kcore_set_scores(g, "ad")
        assert not np.isnan(scores.scores).any()
        assert np.allclose(scores.scores, 4.0)

    def test_isolated_vertices_score_zero_average_degree(self):
        g = Graph.empty(3)
        scores = kcore_set_scores(g, "ad")
        assert scores.scores[0] == 0.0

    def test_best_k_raises_on_all_nan(self):
        g = Graph.empty(0)
        scores = kcore_set_scores(g, "ad")
        assert math.isnan(scores.scores[0])
        with pytest.raises(ValueError):
            scores.best_k()

    def test_reused_ordering(self, figure2):
        od = order_vertices(figure2)
        a = kcore_set_scores(figure2, "ad", ordered=od)
        b = kcore_set_scores(figure2, "mod", ordered=od)
        assert a.values[0].num_edges == b.values[0].num_edges

    def test_repr(self, figure2):
        result = best_kcore_set(figure2, "ad")
        assert "k=2" in repr(result)
        assert "average_degree" in repr(result)
