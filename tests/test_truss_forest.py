"""Tests for the truss forest and best single k-truss."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.truss import (
    best_single_ktruss,
    build_truss_forest,
    truss_decomposition,
)
from conftest import random_graph, zoo_params


def naive_truss_components(graph):
    """Oracle: for every k, connected components of the truss->=k edge set."""
    td = truss_decomposition(graph)
    out = []
    tmax = td.tmax
    for k in range(2, tmax + 1):
        kept = td.edges[td.truss >= k]
        if len(kept) == 0:
            continue
        # Union-find over the kept edges.
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in kept.tolist():
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
        comps = {}
        for u, v in kept.tolist():
            comps.setdefault(find(u), set()).update((u, v))
        for members in comps.values():
            out.append((k, frozenset(members)))
    return out


class TestForestStructure:
    def test_figure2_shape(self, figure2):
        forest = build_truss_forest(figure2)
        by_k = {}
        for node in forest.nodes:
            by_k.setdefault(node.k, []).append(
                frozenset(forest.truss_vertices(node.node_id).tolist())
            )
        assert sorted(map(sorted, by_k[4])) == [[0, 1, 2, 3], [8, 9, 10, 11]]
        assert by_k[3] == [frozenset(range(8))]
        assert by_k[2] == [frozenset(range(12))]

    @zoo_params()
    def test_matches_naive_components(self, graph):
        if graph.num_edges == 0:
            return
        forest = build_truss_forest(graph)
        reconstructed = set()
        decomposition = forest.decomposition
        for node in forest.nodes:
            reconstructed.add(
                (node.k, frozenset(forest.truss_vertices(node.node_id).tolist()))
            )
        # Forest stores a node only at levels where the truss gains edges;
        # project the naive enumeration the same way.
        naive = set()
        truss = decomposition.truss
        edges = decomposition.edges
        for k, comp in naive_truss_components(graph):
            has_level_edges = any(
                truss[i] == k and int(edges[i][0]) in comp
                for i in range(len(truss))
            )
            if has_level_edges:
                naive.add((k, comp))
        assert reconstructed == naive

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_random(self, seed):
        g = random_graph(25, 80, seed)
        forest = build_truss_forest(g)
        reconstructed = {
            (node.k, frozenset(forest.truss_vertices(node.node_id).tolist()))
            for node in forest.nodes
        }
        truss = forest.decomposition.truss
        edges = forest.decomposition.edges
        naive = set()
        for k, comp in naive_truss_components(g):
            if any(truss[i] == k and int(edges[i][0]) in comp for i in range(len(truss))):
                naive.add((k, comp))
        assert reconstructed == naive

    @zoo_params()
    def test_children_strictly_deeper(self, graph):
        if graph.num_edges == 0:
            return
        forest = build_truss_forest(graph)
        for node in forest.nodes:
            for child in node.children:
                assert forest.nodes[child].k > node.k
                assert forest.nodes[child].parent == node.node_id

    @zoo_params()
    def test_edges_partitioned(self, graph):
        if graph.num_edges == 0:
            return
        forest = build_truss_forest(graph)
        stored = np.concatenate([n.edge_ids for n in forest.nodes])
        assert sorted(stored.tolist()) == list(range(graph.num_edges))


class TestBestSingleTruss:
    def test_figure2_cc(self, figure2):
        best = best_single_ktruss(figure2, "cc")
        assert best.k == 4
        assert best.score == pytest.approx(1.0)
        assert len(best.vertices) == 4

    def test_figure2_average_degree(self, figure2):
        best = best_single_ktruss(figure2, "ad")
        # The 2-truss is the whole graph: avg degree 19*2/12 beats the K4s.
        assert best.k == 2
        assert best.score == pytest.approx(2 * 19 / 12)

    def test_cut_ratio_prefers_boundaryless(self):
        # A triangle component and a K4 attached to a tail: the triangle's
        # truss has no boundary edges.
        edges = [(0, 1), (1, 2), (0, 2),
                 (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6), (6, 7)]
        g = Graph.from_edges(edges)
        best = best_single_ktruss(g, "cr")
        assert set(best.vertices.tolist()) == {0, 1, 2}

    def test_edgeless_graph_raises(self):
        with pytest.raises(ValueError):
            best_single_ktruss(Graph.empty(3), "ad")

    @pytest.mark.parametrize("metric", ("ad", "den", "cc", "con"))
    def test_best_is_argmax_over_enumeration(self, figure2, metric):
        from repro.engine import get_metric, graph_totals, primary_values
        forest = build_truss_forest(figure2)
        m = get_metric(metric)
        totals = graph_totals(figure2)
        scores = []
        for node in forest.nodes:
            pv = primary_values(figure2, forest.truss_vertices(node.node_id),
                                count_triangles=m.requires_triangles)
            scores.append(m.score(pv, totals))
        best = best_single_ktruss(figure2, metric, forest=forest)
        assert best.score == pytest.approx(max(s for s in scores if s == s))
