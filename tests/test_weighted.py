"""Tests for the weighted (s-core) extension."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import core_decomposition
from repro.engine import baseline_family_set_scores, best_level_set, family_set_scores
from repro.errors import UnknownMetricError
from repro.graph import Graph, GraphBuilder
from repro.index import BestKIndex
from repro.kernels import get_backend
from repro.weighted import (
    WeightedPrimaryValues,
    WeightedTotals,
    arc_weights,
    available_weighted_metrics,
    get_weighted_metric,
    s_core_decomposition,
)
from conftest import random_graph, zoo_params


def unit_weights(graph):
    return np.ones(graph.num_edges)


def random_weights(graph, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 3.0, graph.num_edges)


def naive_s_levels(graph, edge_weights):
    """Definitional oracle: peel min-strength vertices one by one."""
    weight = {}
    for (u, v), w in zip(graph.edge_array().tolist(), edge_weights):
        weight[(u, v)] = weight[(v, u)] = float(w)
    alive = set(range(graph.num_vertices))
    strength = {
        v: sum(weight.get((v, int(u)), 0.0) for u in graph.neighbors(v))
        for v in alive
    }
    level = {}
    current = 0.0
    while alive:
        v = min(alive, key=lambda x: (strength[x], x))
        current = max(current, strength[v])
        level[v] = current
        alive.discard(v)
        for u in graph.neighbors(v):
            u = int(u)
            if u in alive:
                strength[u] -= weight[(v, u)]
    return [level[v] for v in range(graph.num_vertices)]


class TestArcWeights:
    def test_both_directions_get_edge_weight(self, triangle):
        w = arc_weights(triangle, np.array([1.0, 2.0, 3.0]))
        # Per-vertex strength equals the sum of its two incident weights.
        strengths = [w[triangle.indptr[v]:triangle.indptr[v + 1]].sum() for v in range(3)]
        assert sum(strengths) == pytest.approx(2 * 6.0)

    def test_length_checked(self, triangle):
        with pytest.raises(ValueError):
            arc_weights(triangle, np.array([1.0]))


class TestDecomposition:
    @zoo_params()
    def test_matches_naive_oracle(self, graph):
        w = random_weights(graph, seed=1)
        decomp = s_core_decomposition(graph, w)
        expected = naive_s_levels(graph, w)
        np.testing.assert_allclose(decomp.level, expected, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_random(self, seed):
        g = random_graph(25, 60, seed)
        w = random_weights(g, seed=seed)
        decomp = s_core_decomposition(g, w)
        np.testing.assert_allclose(decomp.level, naive_s_levels(g, w), atol=1e-9)

    def test_unit_weights_equal_coreness(self, figure2):
        decomp = s_core_decomposition(figure2, unit_weights(figure2))
        coreness = core_decomposition(figure2).coreness
        assert decomp.level.tolist() == coreness.tolist()

    def test_levels_monotone_nesting(self, figure2):
        w = random_weights(figure2, seed=2)
        decomp = s_core_decomposition(figure2, w)
        for s in np.linspace(0, decomp.smax, 7):
            members = set(decomp.s_core_vertices(s).tolist())
            deeper = set(decomp.s_core_vertices(s + 0.5).tolist())
            assert deeper <= members

    def test_rejects_negative_weights(self, triangle):
        with pytest.raises(ValueError):
            s_core_decomposition(triangle, np.array([1.0, -2.0, 1.0]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejects_non_finite_weights(self, triangle, bad):
        with pytest.raises(ValueError, match="finite"):
            s_core_decomposition(triangle, np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_index_rejects_non_finite_weights(self, bad):
        g = random_graph(200, 800, seed=3)
        w = np.random.default_rng(0).lognormal(0.0, 0.75, g.num_edges)
        w[5] = bad
        index = BestKIndex(g, store=False)
        with pytest.raises(ValueError, match="finite"):
            index.best_level("weighted", "weighted_average_degree", edge_weights=w)

    def test_integer_levels_range(self, figure2):
        decomp = s_core_decomposition(figure2, random_weights(figure2))
        levels = decomp.integer_levels(10)
        assert levels.min() >= 0
        assert levels.max() <= 10
        with pytest.raises(ValueError):
            decomp.integer_levels(0)


def frozen_heap_peel(graph, edge_weights):
    """The heap loop as it ran over numpy arrays, kept as a fixed oracle."""
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    n = graph.num_vertices
    weights = arc_weights(graph, edge_weights) if len(edge_weights) else np.empty(0)
    indptr, indices = graph.indptr, graph.indices
    strength = get_backend("numpy").vertex_strengths(graph, weights)
    alive = np.ones(n, dtype=bool)
    level = np.zeros(n, dtype=np.float64)
    order = np.empty(n, dtype=np.int64)
    heap = [(float(strength[v]), v) for v in range(n)]
    heapq.heapify(heap)
    current = 0.0
    removed = 0
    while heap:
        s, v = heapq.heappop(heap)
        if not alive[v] or s != strength[v]:
            continue
        current = max(current, s)
        level[v] = current
        order[removed] = v
        removed += 1
        alive[v] = False
        for j in range(indptr[v], indptr[v + 1]):
            u = int(indices[j])
            if alive[u]:
                strength[u] -= weights[j]
                heapq.heappush(heap, (float(strength[u]), u))
    return level, order


def assert_peel_bit_identical(graph, weights):
    decomp = s_core_decomposition(graph, weights, backend="numpy")
    level, order = frozen_heap_peel(graph, weights)
    np.testing.assert_array_equal(decomp.level, level)
    np.testing.assert_array_equal(decomp.peel_order, order)


class TestListPeelBitIdentical:
    """The list-based heap loop against the numpy-indexed one, exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_lognormal_graphs(self, seed):
        g = random_graph(60 + 20 * seed, 200 + 90 * seed, seed)
        w = np.random.default_rng(seed).lognormal(0.0, 0.75, g.num_edges)
        assert_peel_bit_identical(g, w)

    @zoo_params()
    def test_zoo(self, graph):
        assert_peel_bit_identical(graph, random_weights(graph, seed=5))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=20), st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=80,
    ), st.integers(min_value=0, max_value=2**16))
    def test_hypothesis_graphs(self, n, raw, seed):
        builder = GraphBuilder()
        for v in range(n):
            builder.add_vertex(v)
        if n:
            builder.add_edges([(u % n, v % n) for u, v in raw])
        g = builder.build()
        w = np.random.default_rng(seed).lognormal(0.0, 0.75, g.num_edges)
        assert_peel_bit_identical(g, w)


class TestMetrics:
    def test_registry(self):
        assert "weighted_average_degree" in available_weighted_metrics()
        metric = get_weighted_metric("weighted_conductance")
        assert get_weighted_metric(metric) is metric
        with pytest.raises(UnknownMetricError):
            get_weighted_metric("nope")

    def test_formulas(self):
        totals = WeightedTotals(10, 100.0)
        pv = WeightedPrimaryValues(4, 6.0, 2.0)
        assert get_weighted_metric("weighted_average_degree").score(pv, totals) == 3.0
        assert get_weighted_metric("weighted_density").score(pv, totals) == 1.0
        assert get_weighted_metric("weighted_conductance").score(pv, totals) == pytest.approx(1 - 2 / 14)
        assert get_weighted_metric("weighted_cut_ratio").score(pv, totals) == pytest.approx(1 - 2 / 24)
        mod = get_weighted_metric("weighted_modularity").score(pv, totals)
        assert mod == pytest.approx(6 / 100 - (14 / 200) ** 2)

    def test_empty_is_nan(self):
        pv = WeightedPrimaryValues(0, 0.0, 0.0)
        assert math.isnan(
            get_weighted_metric("weighted_average_degree").score(pv, WeightedTotals(5, 1.0))
        )


class TestScoring:
    @zoo_params()
    @pytest.mark.parametrize("metric", ("weighted_average_degree", "weighted_conductance",
                                        "weighted_modularity"))
    def test_incremental_equals_baseline(self, graph, metric):
        if graph.num_edges == 0:
            return
        w = random_weights(graph, seed=3)
        params = {"edge_weights": w, "num_levels": 16}
        fast = family_set_scores(graph, "weighted", metric, **params)
        slow = baseline_family_set_scores(graph, "weighted", metric, **params)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_incremental_equals_baseline_random(self, seed):
        g = random_graph(30, 90, seed)
        w = random_weights(g, seed=seed + 10)
        for metric in available_weighted_metrics():
            params = {"edge_weights": w, "num_levels": 24}
            fast = family_set_scores(g, "weighted", metric, **params)
            slow = baseline_family_set_scores(g, "weighted", metric, **params)
            np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True, atol=1e-9)

    def test_unit_weights_reduce_to_unweighted(self, figure2):
        """With unit weights and exact levels, the weighted machinery must
        reproduce Algorithm 2's average-degree scores."""
        from repro.core import kcore_set_scores
        w = unit_weights(figure2)
        decomp = s_core_decomposition(figure2, w)
        # Levels are the integer coreness values: quantise losslessly.
        smax = int(decomp.smax)
        weighted = family_set_scores(figure2, "weighted", "weighted_average_degree",
                                     decomposition=decomp, edge_weights=w, num_levels=smax)
        unweighted = kcore_set_scores(figure2, "average_degree")
        np.testing.assert_allclose(weighted.scores, unweighted.scores, equal_nan=True)

    def test_best_weighted_level_set(self, figure2):
        w = unit_weights(figure2)
        result = best_level_set(figure2, "weighted", "weighted_average_degree",
                                edge_weights=w, num_levels=3)
        assert result.score == pytest.approx(2 * 19 / 12)
        assert len(result.vertices) == 12

    def test_best_s_core_prefers_heavy_region(self):
        # Two triangles; one has 10x heavier edges.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        weights = np.array([10.0, 10.0, 10.0, 1.0, 1.0, 1.0])
        result = best_level_set(g, "weighted", "weighted_average_degree",
                                edge_weights=weights, num_levels=20)
        assert set(result.vertices.tolist()) == {0, 1, 2}

    def test_best_level_raises_when_empty(self):
        g = Graph.empty(0)
        scores = family_set_scores(
            g, "weighted", "weighted_average_degree", edge_weights=np.empty(0)
        )
        with pytest.raises(ValueError):
            scores.best_level()


class TestArcWeightsExpandedOnce:
    """The per-edge weights are expanded to arcs once per decomposition."""

    @staticmethod
    def count_expansions(monkeypatch) -> list:
        import repro.weighted.decomposition as wd

        calls: list = []
        original = wd.arc_weights

        def counted(graph, edge_weights):
            calls.append(1)
            return original(graph, edge_weights)

        monkeypatch.setattr(wd, "arc_weights", counted)
        return calls

    def test_one_expansion_per_weighted_build(self, monkeypatch):
        graph = random_graph(60, 240, 5)
        weights = random_weights(graph, seed=5)
        expected = {
            m: family_set_scores(graph, "weighted", m, edge_weights=weights).scores
            for m in available_weighted_metrics()
        }
        calls = self.count_expansions(monkeypatch)
        index = BestKIndex(graph, jobs=1, store=False)
        for m in available_weighted_metrics():
            got = index.level_scores("weighted", m, edge_weights=weights).scores
            assert np.array_equal(got, expected[m], equal_nan=True)
            index.best_node("weighted", m, edge_weights=weights)
        assert len(calls) == 1

    def test_cached_expansion_is_the_expansion(self):
        graph = random_graph(40, 150, 2)
        weights = random_weights(graph, seed=2)
        decomp = s_core_decomposition(graph, weights)
        assert np.array_equal(decomp.arc_weights, arc_weights(graph, weights))

    def test_hydrated_decomposition_expands_lazily(self, monkeypatch, tmp_path):
        graph = random_graph(40, 150, 3)
        weights = random_weights(graph, seed=3)
        metric = "weighted_average_degree"
        BestKIndex(graph, jobs=1, store=tmp_path).best_level("weighted", metric, edge_weights=weights)
        calls = self.count_expansions(monkeypatch)
        warm = BestKIndex(graph, jobs=1, store=tmp_path)
        decomp = warm.family_decomposition("weighted", edge_weights=weights)
        assert calls == []
        assert np.array_equal(decomp.arc_weights, arc_weights(graph, weights))
        assert decomp.arc_weights is decomp.arc_weights
