"""Property-based tests (hypothesis) for the core invariants.

Strategy: generate arbitrary small simple graphs as edge sets and check
that every optimised component agrees with its definitional oracle and
that the paper's structural invariants hold universally.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    baseline_kcore_set_scores,
    best_kcore_set,
    build_core_forest,
    build_core_forest_lcps,
    core_decomposition,
    kcore_scores,
    baseline_kcore_scores,
    kcore_set_scores,
    order_vertices,
)
from repro.core.naive import coreness_naive, kcore_set_vertices_naive
from repro.engine import build_level_forest, count_triangles, count_triplets, get_family, level_ordering
from repro.graph import Graph, GraphBuilder, validate_graph
from repro.kernels import get_backend
from repro.truss import level_set_scores, truss_decomposition, ktruss_set_scores, baseline_ktruss_set_scores
from conftest import MAINTENANCE_PLANS, CorenessStream

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=24, max_edges=70):
    """A random simple graph (possibly disconnected, possibly empty)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n < 2:
        return Graph.empty(n)
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    raw = draw(st.lists(pair, max_size=max_edges))
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    builder.add_edges(raw)
    return builder.build()


class TestGraphInvariants:
    @SETTINGS
    @given(graphs())
    def test_builder_output_always_validates(self, g):
        validate_graph(g)

    @SETTINGS
    @given(graphs())
    def test_degree_sum_is_twice_edges(self, g):
        assert g.degrees().sum() == 2 * g.num_edges


class TestDecompositionInvariants:
    @SETTINGS
    @given(graphs())
    def test_coreness_matches_naive(self, g):
        assert core_decomposition(g).coreness.tolist() == coreness_naive(g).tolist()

    @SETTINGS
    @given(graphs())
    def test_kcore_sets_nest(self, g):
        decomp = core_decomposition(g)
        previous = None
        for k in range(decomp.kmax + 1):
            current = set(decomp.kcore_set_vertices(k).tolist())
            if previous is not None:
                assert current <= previous
            previous = current

    @SETTINGS
    @given(graphs())
    def test_coreness_bounded_by_degree(self, g):
        decomp = core_decomposition(g)
        assert (decomp.coreness <= g.degrees()).all()

    @SETTINGS
    @given(graphs())
    def test_kcore_members_have_min_internal_degree(self, g):
        decomp = core_decomposition(g)
        for k in range(1, decomp.kmax + 1):
            members = set(decomp.kcore_set_vertices(k).tolist())
            for v in members:
                inside = sum(1 for u in g.neighbors(v) if int(u) in members)
                assert inside >= k


class TestOrderingInvariants:
    @SETTINGS
    @given(graphs())
    def test_tags_partition_each_neighborhood(self, g):
        od = order_vertices(g)
        for v in range(g.num_vertices):
            assert 0 <= od.same[v] <= od.plus[v] <= g.degree(v)
            assert 0 <= od.high[v] <= g.degree(v)
            ranks = od.rank[od.neighbors(v)]
            assert np.all(np.diff(ranks) > 0)


class TestScoringInvariants:
    @SETTINGS
    @given(graphs(), st.sampled_from(["ad", "den", "cr", "con", "mod"]))
    def test_alg2_equals_baseline(self, g, metric):
        opt = kcore_set_scores(g, metric)
        base = baseline_kcore_set_scores(g, metric)
        np.testing.assert_allclose(opt.scores, base.scores, equal_nan=True)

    @SETTINGS
    @given(graphs(max_vertices=18, max_edges=45))
    def test_alg3_triangle_counts_cumulative(self, g):
        scores = kcore_set_scores(g, "cc")
        assert scores.values[0].num_triangles == count_triangles(g)
        assert scores.values[0].num_triplets == count_triplets(g)
        # Counts are non-increasing in k (containment).
        tri = [v.num_triangles for v in scores.values]
        trip = [v.num_triplets for v in scores.values]
        assert tri == sorted(tri, reverse=True)
        assert trip == sorted(trip, reverse=True)

    @SETTINGS
    @given(graphs(max_vertices=18, max_edges=45))
    def test_alg5_equals_baseline(self, g):
        forest = build_core_forest(g)
        fast = kcore_scores(g, "cc", forest=forest)
        slow = baseline_kcore_scores(g, "cc", forest=forest)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)

    @SETTINGS
    @given(graphs())
    def test_best_k_is_argmax(self, g):
        if g.num_vertices == 0:
            return
        result = best_kcore_set(g, "average_degree")
        finite = result.scores.scores[~np.isnan(result.scores.scores)]
        assert result.score == finite.max()


class TestForestInvariants:
    @SETTINGS
    @given(graphs())
    def test_builders_agree(self, g):
        lcps, sweep = build_core_forest_lcps(g), build_core_forest(g)
        for field in ("k", "parent", "vert_ptr", "vertices"):
            np.testing.assert_array_equal(getattr(sweep, field), getattr(lcps, field))

    @SETTINGS
    @given(graphs())
    def test_forest_stores_each_vertex_once(self, g):
        forest = build_core_forest(g)
        stored = [int(v) for node in forest.nodes for v in node.vertices]
        assert sorted(stored) == list(range(g.num_vertices))

    @SETTINGS
    @given(graphs())
    def test_core_sizes_sum_correctly(self, g):
        forest = build_core_forest(g)
        scored = kcore_scores(g, "ad", forest=forest)
        for node in forest.nodes:
            assert scored.values[node.node_id].num_vertices == len(
                forest.core_vertices(node.node_id)
            )


class TestTripletKernelInvariants:
    """The numpy triplet pass equals the python loop for every grouping."""

    @staticmethod
    def assert_backends_agree(ordering, groups, g):
        want = get_backend("python").triplet_group_deltas(ordering, groups)
        got = get_backend("numpy").triplet_group_deltas(ordering, groups)
        np.testing.assert_array_equal(got, want)
        assert int(got.sum()) == count_triplets(g)

    @SETTINGS
    @given(graphs())
    def test_core_shells_and_forest_nodes(self, g):
        ordered = order_vertices(g)
        decomp = ordered.decomposition
        shells = [decomp.shell(k) for k in range(decomp.kmax, -1, -1)]
        self.assert_backends_agree(ordered, shells, g)
        nodes = build_core_forest(g, decomp).node_vertex_groups()
        self.assert_backends_agree(ordered, nodes, g)

    @SETTINGS
    @given(graphs(max_vertices=16, max_edges=40))
    def test_truss_forest_nodes(self, g):
        fam = get_family("truss")
        levels = fam.levels(fam.decompose(g))
        nodes = build_level_forest(g, levels).node_vertex_groups()
        self.assert_backends_agree(level_ordering(g, levels), nodes, g)


class TestTrussInvariants:
    @SETTINGS
    @given(graphs(max_vertices=16, max_edges=40))
    def test_truss_optimal_equals_baseline(self, g):
        td = truss_decomposition(g)
        opt = ktruss_set_scores(g, "ad", decomposition=td)
        base = baseline_ktruss_set_scores(g, "ad", decomposition=td)
        np.testing.assert_allclose(opt.scores, base.scores, equal_nan=True)

    @SETTINGS
    @given(graphs(max_vertices=16, max_edges=40))
    def test_truss_at_least_two_and_bounded_by_support(self, g):
        td = truss_decomposition(g)
        if len(td.truss) == 0:
            return
        assert (td.truss >= 2).all()
        # truss(e) - 2 <= support(e) in the full graph.
        for (u, v), t in zip(td.edges.tolist(), td.truss.tolist()):
            common = len(set(map(int, g.neighbors(u))) & set(map(int, g.neighbors(v))))
            assert t - 2 <= common

    @SETTINGS
    @given(graphs(max_vertices=16, max_edges=40))
    def test_generalised_levels_match_specialised(self, g):
        decomp = core_decomposition(g)
        general = level_set_scores(g, decomp.coreness, "mod")
        specialised = kcore_set_scores(g, "mod")
        np.testing.assert_allclose(general.scores, specialised.scores, equal_nan=True)


class TestDynamicInvariants:
    @SETTINGS
    @given(graphs(max_vertices=14, max_edges=30), st.sampled_from(MAINTENANCE_PLANS))
    def test_incremental_build_matches_static(self, g, plan):
        stream = CorenessStream(Graph.empty(g.num_vertices), plan)
        for u, v in g.edges():
            stream.insert(u, v)
        np.testing.assert_array_equal(
            stream.coreness, core_decomposition(g).coreness
        )

    @SETTINGS
    @given(graphs(max_vertices=14, max_edges=30), st.sampled_from(MAINTENANCE_PLANS))
    def test_full_teardown_matches_static(self, g, plan):
        stream = CorenessStream(g, plan)
        edges = list(g.edges())
        for u, v in edges[: len(edges) // 2]:
            stream.delete(u, v)
        stream.assert_exact()


class TestCombinedInvariants:
    @SETTINGS
    @given(graphs())
    def test_combined_winner_is_pareto_reasonable(self, g):
        from repro.core.combine import combined_kcore_set_scores
        if g.num_vertices == 0 or g.num_edges == 0:
            return
        result = combined_kcore_set_scores(g, [("ad", 1.0), ("con", 1.0)])
        # The combined profile is a convex combination of [0,1] profiles.
        finite = result.combined[~np.isnan(result.combined)]
        assert (finite <= 1 + 1e-9).all() and (finite >= -1e-9).all()
        assert 0 <= result.k <= core_decomposition(g).kmax
