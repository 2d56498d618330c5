"""Scenario tests: distinct end-to-end behaviours on crafted graphs.

Each test constructs a graph whose correct best-k answer is derivable by
hand, then checks the full pipeline lands on it — complementing the
oracle-equality tests with *semantic* expectations.
"""

import numpy as np
import pytest

from repro.core import (
    best_kcore_set,
    best_single_kcore,
    build_core_forest,
    core_decomposition,
    kcore_set_scores,
    register_metric,
)
from repro.graph import Graph, GraphBuilder


def clique(ids):
    return [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]


class TestNestedCliques:
    """K8 containing communities of decreasing density around it."""

    @pytest.fixture()
    def onion(self):
        builder = GraphBuilder()
        # Inner K8 (7-core).
        builder.add_edges(clique(list(range(8))))
        # Middle ring: 12 vertices each tied to 4 inner vertices (4-shell).
        for i in range(12):
            v = 8 + i
            for j in range(4):
                builder.add_edge(v, (i + j) % 8)
        # Outer fringe: 20 pendants on the middle ring (1-shell).
        for i in range(20):
            builder.add_edge(20 + i, 8 + (i % 12))
        return builder.build()

    def test_shell_structure(self, onion):
        decomp = core_decomposition(onion)
        assert decomp.kmax == 7
        assert decomp.shell_size(7) == 8
        assert decomp.shell_size(4) == 12
        assert decomp.shell_size(1) == 20

    def test_density_peels_to_the_core(self, onion):
        assert best_kcore_set(onion, "den").k == 7

    def test_average_degree_peaks_at_the_middle_layer(self, onion):
        # The K8 alone averages 7.0, but K8 + the 4-shell ring averages
        # 7.6 — average degree rewards the larger dense union, landing on
        # the 4-core rather than the deepest core.
        result = best_kcore_set(onion, "ad")
        assert result.k == 4
        assert result.score == pytest.approx(7.6)

    def test_conductance_takes_everything(self, onion):
        # Only k = 0/1 has no boundary (the whole graph); conductance = 1.
        result = best_kcore_set(onion, "con")
        assert result.k <= 1
        assert result.score == pytest.approx(1.0)


class TestTwoScalesOfCommunity:
    """A large sparse-but-big community vs a small dense one."""

    @pytest.fixture()
    def graph(self):
        builder = GraphBuilder()
        # Dense pocket: K6.
        builder.add_edges(clique(list(range(6))))
        # Large community: a 40-vertex 3-regular-ish circulant.
        for i in range(40):
            v = 6 + i
            builder.add_edge(v, 6 + (i + 1) % 40)
            builder.add_edge(v, 6 + (i + 2) % 40)
        # One bridge between them.
        builder.add_edge(0, 6)
        return builder.build()

    def test_every_metric_picks_a_sensible_core(self, graph):
        decomp = core_decomposition(graph)
        assert decomp.kmax == 5
        # Density and cc isolate the K6.
        for metric in ("den", "cc"):
            best = best_single_kcore(graph, metric)
            assert set(best.vertices.tolist()) == set(range(6)), metric
        # Average degree of the circulant (4) vs the K6 (5): K6 wins.
        best_ad = best_single_kcore(graph, "ad")
        assert set(best_ad.vertices.tolist()) == set(range(6))

    def test_profile_is_piecewise_constant_between_shells(self, graph):
        scores = kcore_set_scores(graph, "ad")
        # The circulant is 4-regular, so shells live only at k=4 and k=5;
        # every C_k for k <= 4 is the whole graph and scores identically.
        assert scores.scores[1] == scores.scores[2] == scores.scores[4]
        assert scores.scores[5] > scores.scores[4]


class TestDisconnectedWorlds:
    """Components of wildly different character."""

    @pytest.fixture()
    def graph(self):
        edges = []
        edges += clique(list(range(5)))                        # K5
        edges += [(5 + i, 5 + (i + 1) % 10) for i in range(10)]  # C10
        edges += [(15, 16)]                                    # K2
        return Graph.from_edges(edges, num_vertices=20)        # + 3 isolated

    def test_forest_one_tree_per_component(self, graph):
        forest = build_core_forest(graph)
        assert len(forest.roots) == 6  # K5, C10, K2, 3 isolated vertices

    def test_single_core_scores_are_per_component(self, graph):
        best = best_single_kcore(graph, "den")
        assert set(best.vertices.tolist()) == set(range(5))
        assert best.score == pytest.approx(1.0)

    def test_kcore_set_unions_components(self, graph):
        scores = kcore_set_scores(graph, "ad")
        # C_2 = K5 + C10 (the K2 and isolated vertices drop out).
        assert scores.values[2].num_vertices == 15
        assert scores.values[4].num_vertices == 5

    def test_cut_ratio_ignores_absent_edges(self, graph):
        scores = kcore_set_scores(graph, "cr")
        # Every C_k has zero boundary edges here (component unions).
        for pv in scores.values:
            assert pv.num_boundary == 0


class TestCustomMetricThroughWholePipeline:
    def test_size_penalised_density(self, figure2):
        try:
            register_metric(
                "scenario_size_penalised",
                lambda v, t: 2.0 * v.num_edges / v.num_vertices - 0.1 * v.num_vertices,
            )
            set_result = best_kcore_set(figure2, "scenario_size_penalised")
            core_result = best_single_kcore(figure2, "scenario_size_penalised")
            # Penalising size pushes the choice into the K4s.
            assert core_result.k == 3
            assert len(core_result.vertices) == 4
            assert set_result.k == 3
        finally:
            from repro.engine import metrics as metrics_module
            metrics_module._REGISTRY.pop("scenario_size_penalised")

    def test_triangle_metric_routes_through_algorithm3(self, figure2):
        try:
            register_metric(
                "scenario_triangle_share",
                lambda v, t: (v.num_triangles or 0) / max(v.num_edges, 1),
                requires_triangles=True,
            )
            result = best_kcore_set(figure2, "scenario_triangle_share")
            assert result.scores.values[result.k].num_triangles is not None
        finally:
            from repro.engine import metrics as metrics_module
            metrics_module._REGISTRY.pop("scenario_triangle_share")


class TestDegenerateShapes:
    def test_single_edge_graph(self):
        g = Graph.from_edges([(0, 1)])
        assert best_kcore_set(g, "ad").k == 1
        best = best_single_kcore(g, "ad")
        assert best.k == 1 and len(best.vertices) == 2

    def test_matching_graph(self):
        g = Graph.from_edges([(2 * i, 2 * i + 1) for i in range(6)])
        scores = kcore_set_scores(g, "den")
        assert scores.kmax == 1
        best = best_single_kcore(g, "den")
        assert best.score == pytest.approx(1.0)
        assert len(best.vertices) == 2

    def test_complete_bipartite(self):
        g = Graph.from_edges([(i, 4 + j) for i in range(4) for j in range(4)])
        decomp = core_decomposition(g)
        assert decomp.kmax == 4
        # Bipartite: no triangles anywhere.
        scores = kcore_set_scores(g, "cc")
        assert all((pv.num_triangles or 0) == 0 for pv in scores.values)
        assert all(s == 0.0 for s in scores.scores)

    def test_star_of_cliques(self):
        # Hub joined to three disjoint K4s by one edge each: the hub keeps
        # exactly 3 neighbours, so the WHOLE graph is a single 3-core —
        # a classic reminder that coreness is about subgraph degrees, not
        # local density.
        builder = GraphBuilder()
        hub = 0
        for block in range(3):
            ids = [1 + block * 4 + i for i in range(4)]
            builder.add_edges(clique(ids))
            builder.add_edge(hub, ids[0])
        g = builder.build()
        decomp = core_decomposition(g)
        assert decomp.coreness[hub] == 3
        assert decomp.kmax == 3
        best = best_single_kcore(g, "ad")
        assert len(best.vertices) == 13
        assert best.score == pytest.approx(2 * 21 / 13)
