"""Unit tests for exact and incremental triangle/triplet counting."""

from itertools import combinations

import numpy as np
import pytest

from repro.core import core_decomposition, order_vertices
from repro.engine import (
    count_triangles,
    count_triangles_and_triplets,
    count_triplets,
    triangles_by_min_rank_vertex,
    triangle_level_increments,
    triplet_charges,
)
from repro.graph import Graph
from conftest import brute_triplets, random_graph, zoo_params


def brute_triangles(graph):
    total = 0
    for u, v, w in combinations(range(graph.num_vertices), 3):
        if graph.has_edge(u, v) and graph.has_edge(v, w) and graph.has_edge(u, w):
            total += 1
    return total


class TestExactCounting:
    @zoo_params()
    def test_triangles_match_brute_force(self, graph):
        assert count_triangles(graph) == brute_triangles(graph)

    @pytest.mark.parametrize("seed", range(6))
    def test_triangles_random(self, seed):
        g = random_graph(25, 80, seed)
        assert count_triangles(g) == brute_triangles(g)

    def test_triplets_formula(self, figure2):
        d = figure2.degrees()
        assert count_triplets(figure2) == int((d * (d - 1) // 2).sum())

    def test_clique_counts(self, clique6):
        assert count_triangles(clique6) == 20  # C(6,3)
        assert count_triplets(clique6) == 6 * 10  # 6 * C(5,2)

    def test_triangle_free(self, path5, star, cycle6):
        for g in (path5, star, cycle6):
            assert count_triangles(g) == 0

    def test_pair_call(self, figure2):
        tri, trip = count_triangles_and_triplets(figure2)
        assert tri == count_triangles(figure2)
        assert trip == count_triplets(figure2)

    def test_empty(self, empty_graph):
        assert count_triangles(empty_graph) == 0
        assert count_triplets(empty_graph) == 0


class TestIncrementalCharges:
    @zoo_params()
    def test_min_rank_charges_sum_to_total(self, graph):
        od = order_vertices(graph)
        charges = triangles_by_min_rank_vertex(od)
        assert charges.sum() == count_triangles(graph)

    def test_min_rank_charge_located_at_min_corner(self, figure2):
        od = order_vertices(figure2)
        charges = triangles_by_min_rank_vertex(od)
        # The triangle (v5, v6, v3) = (4, 5, 2): min rank corner is the
        # 2-shell vertex with smaller id, i.e. v5 (index 4).
        assert charges[4] >= 1

    @zoo_params()
    def test_triplet_group_deltas_sum_to_total(self, graph):
        decomp = core_decomposition(graph)
        od = order_vertices(graph, decomp)
        _, deltas = triangle_level_increments(od, decomp.order, decomp.shell_start)
        assert len(deltas) == decomp.kmax + 1
        assert deltas.sum() == count_triplets(graph)
        assert triplet_charges(od).sum() == count_triplets(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_group_deltas_random(self, seed):
        g = random_graph(30, 100, seed)
        decomp = core_decomposition(g)
        od = order_vertices(g, decomp)
        trip = triplet_charges(od)
        assert trip.sum() == count_triplets(g)
        for k in range(decomp.kmax + 1):
            # The increment of the k-core set is the triplets of its
            # subgraph minus those of the (k+1)-core set's.
            assert trip[decomp.shell(k)].sum() == (
                brute_triplets(g, decomp.kcore_set_vertices(k))
                - brute_triplets(g, decomp.kcore_set_vertices(k + 1))
            )
        charges = triangles_by_min_rank_vertex(od)
        assert charges.sum() == count_triangles(g)
