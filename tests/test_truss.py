"""Tests for truss decomposition and the best-k-truss extension."""

import networkx as nx
import numpy as np
import pytest

from repro.core import PAPER_METRICS, core_decomposition, kcore_set_scores
from repro.engine import baseline_family_set_scores, best_level_set, family_set_scores
from repro.graph import Graph
from repro.truss import level_ordering, level_set_scores, truss_decomposition
from conftest import random_graph, zoo_params


def nx_truss_numbers(graph):
    """Oracle: truss number per edge via networkx's k_truss subgraphs."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges())
    truss = {tuple(sorted(e)): 2 for e in g.edges()}
    k = 3
    while True:
        sub = nx.k_truss(g, k)
        if sub.number_of_edges() == 0:
            break
        for e in sub.edges():
            truss[tuple(sorted(e))] = k
        k += 1
    return truss


class TestTrussNumbers:
    def test_figure2_trusses(self, figure2):
        td = truss_decomposition(figure2)
        truss = dict(zip(map(tuple, td.edges.tolist()), td.truss.tolist()))
        # K4 edges form 4-trusses; the 2-shell path/triangle region is a
        # 3-truss; the lone bridge (v8, v9) is only a 2-truss.
        assert truss[(0, 1)] == 4
        assert truss[(8, 9)] == 4
        assert truss[(4, 5)] == 3
        assert truss[(7, 8)] == 2
        assert td.tmax == 4

    @zoo_params()
    def test_matches_networkx(self, graph):
        td = truss_decomposition(graph)
        expected = nx_truss_numbers(graph)
        got = dict(zip(map(tuple, td.edges.tolist()), td.truss.tolist()))
        assert got == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_random(self, seed):
        g = random_graph(25, 90, seed)
        td = truss_decomposition(g)
        expected = nx_truss_numbers(g)
        got = dict(zip(map(tuple, td.edges.tolist()), td.truss.tolist()))
        assert got == expected

    def test_vertex_levels(self, figure2):
        td = truss_decomposition(figure2)
        assert td.vertex_level[0] == 4   # K4 member
        assert td.vertex_level[7] == 3   # v8: best incident edge is a 3-truss
        assert td.vertex_level[4] == 3

    def test_truss_edge_queries(self, figure2):
        td = truss_decomposition(figure2)
        assert len(td.ktruss_edges(4)) == 12  # both K4s
        assert set(td.ktruss_vertices(4).tolist()) == {0, 1, 2, 3, 8, 9, 10, 11}

    def test_empty_graph(self):
        td = truss_decomposition(Graph.empty(3))
        assert td.tmax == 0
        assert len(td.truss) == 0


class TestBestKTruss:
    @zoo_params()
    @pytest.mark.parametrize("metric", ("average_degree", "conductance", "clustering_coefficient"))
    def test_optimal_equals_baseline(self, graph, metric):
        if graph.num_edges == 0:
            return
        td = truss_decomposition(graph)
        opt = family_set_scores(graph, "truss", metric, decomposition=td)
        base = baseline_family_set_scores(graph, "truss", metric, decomposition=td)
        np.testing.assert_allclose(opt.scores, base.scores, equal_nan=True)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_optimal_equals_baseline_random(self, seed, metric):
        g = random_graph(30, 100, seed)
        td = truss_decomposition(g)
        opt = family_set_scores(g, "truss", metric, decomposition=td)
        base = baseline_family_set_scores(g, "truss", metric, decomposition=td)
        np.testing.assert_allclose(opt.scores, base.scores, equal_nan=True)

    def test_best_result_fields(self, figure2):
        result = best_level_set(figure2, "truss", "cc")
        assert result.k == 4
        assert result.score == pytest.approx(1.0)
        assert set(result.vertices.tolist()) == {0, 1, 2, 3, 8, 9, 10, 11}

    def test_tie_breaks_to_largest_k(self, clique6):
        result = best_level_set(clique6, "truss", "average_degree")
        assert result.k == 6  # K6 is a 6-truss; all smaller k tie


class TestGeneralisedLevels:
    @zoo_params()
    @pytest.mark.parametrize("metric", ("average_degree", "modularity", "clustering_coefficient"))
    def test_coreness_levels_reproduce_algorithm2(self, graph, metric):
        """The generalised machinery with coreness levels must equal Alg 2/3."""
        decomp = core_decomposition(graph)
        general = level_set_scores(graph, decomp.coreness, metric)
        specialised = kcore_set_scores(graph, metric)
        np.testing.assert_allclose(
            general.scores, specialised.scores, equal_nan=True
        )

    def test_level_ordering_validates_input(self, figure2):
        with pytest.raises(ValueError):
            level_ordering(figure2, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            level_ordering(figure2, -np.ones(12, dtype=np.int64))

    def test_constant_levels(self, figure2):
        scores = level_set_scores(figure2, np.full(12, 2, dtype=np.int64), "ad")
        # Level sets: k=0,1,2 all equal the whole graph.
        assert np.allclose(scores.scores, 2 * 19 / 12)
        assert scores.best_k() == 2
