"""Unit tests for Algorithm 1 (vertex ordering with position tags)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import core_decomposition, order_vertices
from repro.engine import level_ordering
from repro.graph import Graph, GraphBuilder
from conftest import random_graph, zoo_params


def brute_force_tags(graph, coreness, rank, v):
    """Tag values straight from Table II's definitions."""
    nbrs = sorted(map(int, graph.neighbors(v)), key=lambda u: rank[u])
    same = sum(1 for u in nbrs if coreness[u] < coreness[v])
    plus = sum(1 for u in nbrs if coreness[u] <= coreness[v])
    high = sum(1 for u in nbrs if rank[u] < rank[v])
    return nbrs, same, plus, high


def tag_slices(od, v):
    """Table II's neighbour classes of ``v``: slices of its rank-ordered row."""
    row = od.indices[od.indptr[v]:od.indptr[v + 1]]
    same, plus, high = od.same[v], od.plus[v], od.high[v]
    return {
        "lt": row[:same], "eq": row[same:plus], "gt": row[plus:],
        "ge": row[same:], "gt_rank": row[high:],
    }


class TestRank:
    def test_rank_is_permutation(self, figure2):
        od = order_vertices(figure2)
        assert sorted(od.rank.tolist()) == list(range(12))

    def test_rank_respects_coreness_then_id(self, figure2):
        od = order_vertices(figure2)
        coreness = od.levels
        for u in range(12):
            for v in range(12):
                if coreness[v] > coreness[u]:
                    assert od.rank[v] > od.rank[u]
                elif coreness[v] == coreness[u] and v > u:
                    assert od.rank[v] > od.rank[u]


class TestAdjacencyOrdering:
    @zoo_params()
    def test_slices_sorted_by_rank(self, graph):
        od = order_vertices(graph)
        for v in range(graph.num_vertices):
            ranks = od.rank[od.indices[od.indptr[v]:od.indptr[v + 1]]]
            assert np.all(np.diff(ranks) > 0)

    @zoo_params()
    def test_same_multiset_of_neighbors(self, graph):
        od = order_vertices(graph)
        for v in range(graph.num_vertices):
            row = od.indices[od.indptr[v]:od.indptr[v + 1]]
            assert sorted(row.tolist()) == sorted(graph.neighbors(v).tolist())


class TestPositionTags:
    @zoo_params()
    def test_tags_match_definitions(self, graph):
        od = order_vertices(graph)
        coreness = od.levels
        for v in range(graph.num_vertices):
            _, same, plus, high = brute_force_tags(graph, coreness, od.rank, v)
            assert od.same[v] == same
            assert od.plus[v] == plus
            assert od.high[v] == high

    @pytest.mark.parametrize("seed", range(5))
    def test_tags_on_random(self, seed):
        g = random_graph(40, 120, seed)
        od = order_vertices(g)
        coreness = od.levels
        for v in range(g.num_vertices):
            _, same, plus, high = brute_force_tags(g, coreness, od.rank, v)
            assert (od.same[v], od.plus[v], od.high[v]) == (same, plus, high)


class TestCountQueries:
    def test_counts_partition_degree(self, figure2):
        od = order_vertices(figure2)
        deg = np.diff(od.indptr)
        assert np.all((0 <= od.same) & (od.same <= od.plus) & (od.plus <= deg))
        assert np.all((0 <= od.high) & (od.high <= deg))
        for v in range(12):
            classes = tag_slices(od, v)
            assert len(classes["lt"]) + len(classes["eq"]) + len(classes["gt"]) == figure2.degree(v)
            assert len(classes["ge"]) == len(classes["eq"]) + len(classes["gt"])

    def test_example3_queries(self, figure2):
        # Paper Example 3: |N(v6, >)| = 1 (v6 is index 5; its only
        # higher-coreness neighbour is v3).
        od = order_vertices(figure2)
        deg = np.diff(od.indptr)
        assert deg[5] - od.plus[5] == 1
        assert od.plus[5] - od.same[5] == 3
        assert od.same[5] == 0
        # v1 (index 0) has plus == |N(v1)|: no neighbour has larger coreness.
        assert deg[0] - od.plus[0] == 0

    def test_slices_match_counts(self, figure2):
        od = order_vertices(figure2)
        coreness = od.levels
        deg = np.diff(od.indptr)
        for v in range(12):
            classes = tag_slices(od, v)
            assert len(classes["lt"]) == od.same[v]
            assert len(classes["eq"]) == od.plus[v] - od.same[v]
            assert len(classes["gt"]) == deg[v] - od.plus[v]
            assert len(classes["ge"]) == deg[v] - od.same[v]
            assert len(classes["gt_rank"]) == deg[v] - od.high[v]
            assert all(coreness[u] < coreness[v] for u in classes["lt"])
            assert all(coreness[u] == coreness[v] for u in classes["eq"])
            assert all(coreness[u] > coreness[v] for u in classes["gt"])
            assert all(coreness[u] >= coreness[v] for u in classes["ge"])
            assert all(od.rank[u] > od.rank[v] for u in classes["gt_rank"])
            # The row before ``high`` is exactly the lower-rank neighbours.
            row = od.indices[od.indptr[v]:od.indptr[v + 1]]
            assert all(od.rank[u] < od.rank[v] for u in row[:od.high[v]])


class TestConstruction:
    def test_accepts_precomputed_decomposition(self, figure2):
        decomp = core_decomposition(figure2)
        od = order_vertices(figure2, decomp)
        assert od.levels is decomp.coreness

    def test_empty_graph(self, empty_graph):
        od = order_vertices(empty_graph)
        assert len(od.rank) == 0

    def test_arrays_read_only(self, figure2):
        od = order_vertices(figure2)
        with pytest.raises(ValueError):
            od.same[0] = 3

    def test_repr(self, figure2):
        assert "max_level=3" in repr(order_vertices(figure2))


# ----------------------------------------------------------------------
# Both Algorithm 1 entry points against an independent scalar reference
# ----------------------------------------------------------------------

def reference_ordering(graph, levels):
    """Algorithm 1 one row at a time: ``sorted`` by (level, id), then scans."""
    n = graph.num_vertices
    levels = [int(x) for x in levels]
    rank = [0] * n
    for r, v in enumerate(sorted(range(n), key=lambda v: (levels[v], v))):
        rank[v] = r
    rows, same, plus, high = [], [], [], []
    for v in range(n):
        row = sorted(map(int, graph.neighbors(v)), key=lambda u: (levels[u], u))
        rows.extend(row)
        same.append(next((i for i, u in enumerate(row) if levels[u] >= levels[v]), len(row)))
        plus.append(next((i for i, u in enumerate(row) if levels[u] > levels[v]), len(row)))
        high.append(next((i for i, u in enumerate(row) if rank[u] > rank[v]), len(row)))
    return {"rank": rank, "indices": rows, "same": same, "plus": plus, "high": high}


def assert_matches_reference(ordering, graph, levels):
    expected = reference_ordering(graph, levels)
    for field, values in expected.items():
        got = getattr(ordering, field)
        assert got.dtype == np.int64, field
        assert got.tolist() == values, field
    assert np.array_equal(ordering.indptr, graph.indptr)


@st.composite
def graphs_with_levels(draw, max_vertices=20, max_edges=60):
    """A random simple graph plus a level array with gaps between values."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    if n >= 2:
        vertex = st.integers(min_value=0, max_value=n - 1)
        builder.add_edges(draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges)))
    palette = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4))
    levels = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return builder.build(), np.asarray(levels, dtype=np.int64)


REFERENCE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

EDGE_CASES = {
    "empty": (Graph.empty(0), []),
    "single-vertex": (Graph.empty(1), [7]),
    "isolated-tail": (Graph.from_edges([(0, 1)], num_vertices=4), [5, 5, 0, 9]),
    "level-gaps": (
        Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], num_vertices=6),
        [2, 9, 2, 0, 9, 4],
    ),
}


class TestAgainstReference:
    @REFERENCE_SETTINGS
    @given(graphs_with_levels())
    def test_level_ordering(self, case):
        graph, levels = case
        assert_matches_reference(level_ordering(graph, levels), graph, levels)

    @REFERENCE_SETTINGS
    @given(graphs_with_levels().map(lambda case: case[0]))
    def test_order_vertices(self, graph):
        od = order_vertices(graph)
        assert_matches_reference(od, graph, od.levels)

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_cases(self, name):
        graph, levels = EDGE_CASES[name]
        assert_matches_reference(level_ordering(graph, levels), graph, levels)
        od = order_vertices(graph)
        assert_matches_reference(od, graph, od.levels)

    @zoo_params()
    def test_core_level_view_is_level_ordering(self, graph):
        """``order_vertices``, Algorithm 1's coreness view, is the level
        ordering of coreness, built on the decomposition's own arrays."""
        decomp = core_decomposition(graph)
        od = order_vertices(graph, decomp)
        direct = level_ordering(graph, decomp.coreness)
        for field in ("levels", "rank", "indptr", "indices", "same", "plus", "high",
                      "order", "level_start"):
            a, b = getattr(od, field), getattr(direct, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        assert od.graph is direct.graph
        # The decomposition's arrays are reused, not sorted or copied again.
        assert od.levels is decomp.coreness
        assert od.order is decomp.order
        assert np.shares_memory(od.level_start, decomp.shell_start)
