"""Tests for the k-ECC extension (min cut, decomposition, best-k)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ecc import ecc_decomposition, k_edge_components, stoer_wagner
from repro.engine import baseline_family_set_scores, best_level_set, family_set_scores
from repro.generators import planted_partition
from repro.graph import Graph, GraphBuilder, connected_components
from conftest import random_graph, zoo_params


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    return g


class TestStoerWagner:
    def test_bridge_cut(self):
        # Two triangles joined by one edge: min cut 1.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                 (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)]
        value, side = stoer_wagner(6, edges)
        assert value == 1.0
        assert sorted(side) in ([0, 1, 2], [3, 4, 5])

    def test_clique_cut(self):
        edges = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
        value, _ = stoer_wagner(5, edges)
        assert value == 4.0  # isolate one vertex of K5

    def test_weighted_cut(self):
        edges = [(0, 1, 10.0), (1, 2, 1.0), (2, 3, 10.0)]
        value, side = stoer_wagner(4, edges)
        assert value == 1.0

    def test_matches_networkx_random(self):
        for seed in range(5):
            g = random_graph(12, 30, seed)
            # Restrict to the largest connected component.
            nxg = to_nx(g)
            comp = max(nx.connected_components(nxg), key=len)
            if len(comp) < 2:
                continue
            sub = nxg.subgraph(comp)
            mapping = {v: i for i, v in enumerate(sorted(comp))}
            edges = [(mapping[u], mapping[v], 1.0) for u, v in sub.edges()]
            ours, _ = stoer_wagner(len(comp), edges)
            theirs, _ = nx.stoer_wagner(sub)
            assert ours == pytest.approx(theirs)

    def test_too_small(self):
        with pytest.raises(ValueError):
            stoer_wagner(1, [])

    @pytest.mark.parametrize("seed", range(8))
    def test_weighted_value_and_side_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(16, 45, seed)
        nxg = to_nx(g)
        comp = sorted(max(nx.connected_components(nxg), key=len))
        mapping = {v: i for i, v in enumerate(comp)}
        edges = [
            (mapping[u], mapping[v], float(rng.integers(1, 6)))
            for u, v in nxg.subgraph(comp).edges()
        ]
        value, side = stoer_wagner(len(comp), edges)
        sub = nx.Graph()
        sub.add_weighted_edges_from(edges)
        theirs, _ = nx.stoer_wagner(sub)
        assert value == theirs
        # The returned side is a proper cut of exactly that weight.
        inside = set(side)
        assert 0 < len(inside) < len(comp)
        crossing = sum(w for u, v, w in edges if (u in inside) != (v in inside))
        assert crossing == value

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_frozen_scalar_search(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(14, 40, seed)
        nxg = to_nx(g)
        comp = sorted(max(nx.connected_components(nxg), key=len))
        mapping = {v: i for i, v in enumerate(comp)}
        edges = [
            (mapping[u], mapping[v], float(rng.random()))
            for u, v in nxg.subgraph(comp).edges()
        ]
        assert stoer_wagner(len(comp), edges) == _scalar_stoer_wagner(len(comp), edges)
        assert stoer_wagner(len(comp), np.array(edges)) == _scalar_stoer_wagner(len(comp), edges)


class TestKEdgeComponents:
    def test_k1_is_connected_components(self, two_components):
        comps = k_edge_components(two_components, 1)
        assert sorted(sorted(c.tolist()) for c in comps) == [[0, 1, 2], [3, 4, 5]]

    def test_figure2_k2(self, figure2):
        # The (v8, v9) edge is a bridge, so the 2-ECCs are the bridge-free
        # region and the right K4.
        comps = k_edge_components(figure2, 2)
        assert sorted(sorted(c.tolist()) for c in comps) == [
            list(range(8)), [8, 9, 10, 11]
        ]

    def test_figure2_k3(self, figure2):
        comps = k_edge_components(figure2, 3)
        assert sorted(sorted(c.tolist()) for c in comps) == [
            [0, 1, 2, 3], [8, 9, 10, 11]
        ]

    @zoo_params()
    @pytest.mark.parametrize("k", (2, 3))
    def test_components_are_k_connected_and_disjoint(self, graph, k):
        comps = k_edge_components(graph, k)
        seen = set()
        for comp in comps:
            members = set(comp.tolist())
            assert not (members & seen)
            seen |= members
            sub = to_nx(graph).subgraph(members)
            assert nx.edge_connectivity(sub) >= k

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_maximal_subgraphs(self, seed):
        """Oracle: the k-ECCs are the maximal vertex sets whose *induced
        subgraph* has edge connectivity >= k (Chang et al.'s definition —
        note networkx's k_edge_components uses the different pairwise-
        connectivity equivalence, which can merge across outside paths)."""
        from itertools import combinations
        g = random_graph(9, 18, seed)
        nxg = to_nx(g)
        for k in (2, 3):
            qualifying = []
            for size in range(2, g.num_vertices + 1):
                for subset in combinations(range(g.num_vertices), size):
                    sub = nxg.subgraph(subset)
                    if sub.number_of_edges() >= 1 and nx.edge_connectivity(sub) >= k:
                        qualifying.append(set(subset))
            maximal = [
                s for s in qualifying
                if not any(s < other for other in qualifying)
            ]
            expected = sorted(tuple(sorted(s)) for s in maximal)
            ours = sorted(tuple(sorted(c.tolist())) for c in k_edge_components(g, k))
            assert ours == expected

    def test_k_validated(self, figure2):
        with pytest.raises(ValueError):
            k_edge_components(figure2, 0)


class TestMatchesUnprunedSweep:
    """The pruned decomposition against a frozen copy of the unpruned one.

    k-ECCs are unique, so pruning to the k-core before each cut must not
    move a single level.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_planted_partition_levels(self, seed):
        g, _ = planted_partition(3, 8 + seed % 4, 0.45, 0.04, seed=seed)
        assert np.array_equal(ecc_decomposition(g).level, _unpruned_levels(g))

    def test_benchmark_shaped_graph(self):
        # The parameters of the families benchmark's small ecc graph.
        g, _ = planted_partition(3, 20, 0.3, 0.02, seed=0)
        assert np.array_equal(ecc_decomposition(g).level, _unpruned_levels(g))

    @zoo_params()
    def test_zoo_levels(self, graph):
        assert np.array_equal(ecc_decomposition(graph).level, _unpruned_levels(graph))

    @zoo_params()
    def test_python_backend_levels(self, graph):
        assert np.array_equal(
            ecc_decomposition(graph, backend="python").level,
            ecc_decomposition(graph, backend="numpy").level,
        )

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=2, max_value=16), st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=50,
    ))
    def test_hypothesis_levels(self, n, raw):
        builder = GraphBuilder()
        for v in range(n):
            builder.add_vertex(v)
        builder.add_edges([(u % n, v % n) for u, v in raw])
        g = builder.build()
        assert np.array_equal(ecc_decomposition(g).level, _unpruned_levels(g))


class TestEccDecomposition:
    def test_figure2_levels(self, figure2):
        decomp = ecc_decomposition(figure2)
        # K4 vertices are 3-edge-connected; the bridge region is 2.
        assert decomp.level.tolist() == [3, 3, 3, 3, 2, 2, 2, 2, 3, 3, 3, 3]
        assert decomp.kmax == 3

    def test_levels_nest(self):
        g = random_graph(20, 55, seed=7)
        decomp = ecc_decomposition(g)
        for k in range(1, decomp.kmax + 1):
            deeper = set(decomp.kecc_set_vertices(k + 1).tolist())
            assert deeper <= set(decomp.kecc_set_vertices(k).tolist())

    def test_level_bounded_by_coreness(self):
        from repro.core import core_decomposition
        g = random_graph(20, 50, seed=8)
        ecc = ecc_decomposition(g).level
        core = core_decomposition(g).coreness
        assert (ecc <= core).all()  # lambda(v) <= coreness(v)

    def test_isolated(self, isolated_vertices):
        decomp = ecc_decomposition(isolated_vertices)
        assert (decomp.level == 0).all()


class TestBestKEcc:
    @zoo_params()
    @pytest.mark.parametrize("metric", ("average_degree", "conductance",
                                        "clustering_coefficient"))
    def test_optimal_equals_baseline(self, graph, metric):
        if graph.num_edges == 0:
            return
        decomp = ecc_decomposition(graph)
        fast = family_set_scores(graph, "ecc", metric, decomposition=decomp)
        slow = baseline_family_set_scores(graph, "ecc", metric, decomposition=decomp)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)

    def test_figure2_best(self, figure2):
        result = best_level_set(figure2, "ecc", "cc")
        assert result.k == 3
        assert result.score == pytest.approx(1.0)
        assert set(result.vertices.tolist()) == {0, 1, 2, 3, 8, 9, 10, 11}

    def test_ad_prefers_whole_graph(self, figure2):
        result = best_level_set(figure2, "ecc", "ad")
        assert result.k <= 2
        assert result.score == pytest.approx(2 * 19 / 12)


# ----------------------------------------------------------------------
# Frozen copies of the unpruned sweep and the scalar Stoer–Wagner search
# ----------------------------------------------------------------------

def _scalar_stoer_wagner(n, edges):
    weight = np.zeros((n, n), dtype=np.float64)
    for u, v, w in edges:
        if u != v:
            weight[u, v] += w
            weight[v, u] += w
    merged = [[v] for v in range(n)]
    active = list(range(n))
    best_value = float("inf")
    best_side = []
    while len(active) > 1:
        start = active[0]
        candidates = [v for v in active if v != start]
        conn = {v: weight[start, v] for v in candidates}
        order = [start]
        while candidates:
            nxt = max(candidates, key=lambda v: (conn[v], -v))
            order.append(nxt)
            candidates.remove(nxt)
            for v in candidates:
                conn[v] += weight[nxt, v]
        s, t = order[-2], order[-1]
        cut_of_phase = float(sum(weight[t, v] for v in active if v != t))
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = list(merged[t])
        merged[s].extend(merged[t])
        for v in active:
            if v not in (s, t):
                weight[s, v] += weight[t, v]
                weight[v, s] = weight[s, v]
        weight[t, :] = 0
        weight[:, t] = 0
        active.remove(t)
    return best_value, sorted(best_side)


def _unpruned_components(graph, k, within):
    labels, count = connected_components(graph, within)
    stack = [np.flatnonzero(labels == c) for c in range(count)]
    out = []
    while stack:
        comp = stack.pop()
        if len(comp) < 2:
            continue
        if k == 1:
            out.append(np.sort(comp))
            continue
        local = {int(v): i for i, v in enumerate(comp)}
        edges = [
            (local[v], local[int(u)], 1.0)
            for v in comp.tolist() for u in graph.neighbors(v)
            if int(u) in local and v < int(u)
        ]
        cut_value, side = _scalar_stoer_wagner(len(comp), edges)
        if cut_value >= k:
            out.append(np.sort(comp))
            continue
        side_set = set(side)
        in_side = np.array([local[int(v)] in side_set for v in comp])
        for part in (comp[in_side], comp[~in_side]):
            if len(part) >= 2:
                sub_labels, sub_count = connected_components(graph, part)
                for c in range(sub_count):
                    piece = np.flatnonzero(sub_labels == c)
                    if len(piece) >= 2:
                        stack.append(piece)
    return out


def _unpruned_levels(graph):
    from repro.core import core_decomposition

    level = np.zeros(graph.num_vertices, dtype=np.int64)
    if graph.num_edges == 0:
        return level
    max_k = int(core_decomposition(graph).coreness.max())
    current = _unpruned_components(graph, 1, np.arange(graph.num_vertices))
    for comp in current:
        level[comp] = 1
    k = 2
    while current and k <= max_k:
        nxt = []
        for comp in current:
            for sub in _unpruned_components(graph, k, comp):
                level[sub] = k
                nxt.append(sub)
        current = nxt
        k += 1
    return level
