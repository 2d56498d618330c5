"""Property-based tests for the application layer and weighted extension."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import (
    core_app,
    densest_subgraph_exact,
    greedy_peel_densest,
    is_clique,
    max_clique,
    opt_d,
)
from repro.core import core_decomposition
from repro.graph import Graph, GraphBuilder
from repro.engine import baseline_family_set_scores, family_set_scores
from repro.weighted import s_core_decomposition

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=18, max_edges=45, min_edges=1):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    raw = draw(st.lists(pair, min_size=min_edges, max_size=max_edges))
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    builder.add_edges(raw)
    return builder.build()


class TestDensestProperties:
    @SETTINGS
    @given(graphs())
    def test_exact_dominates_and_half_bound(self, g):
        if g.num_edges == 0:
            return
        exact = densest_subgraph_exact(g)
        for solver in (opt_d, core_app, greedy_peel_densest):
            approx = solver(g)
            assert approx.avg_degree <= exact.avg_degree + 1e-9
            assert approx.avg_degree >= exact.avg_degree / 2 - 1e-9

    @SETTINGS
    @given(graphs())
    def test_exact_is_at_least_kmax(self, g):
        if g.num_edges == 0:
            return
        # The kmax-core guarantees density >= kmax/2, i.e. avg degree >= kmax.
        kmax = core_decomposition(g).kmax
        assert densest_subgraph_exact(g).avg_degree >= kmax - 1e-9

    @SETTINGS
    @given(graphs())
    def test_reported_density_is_true_density(self, g):
        if g.num_edges == 0:
            return
        for solver in (opt_d, core_app, greedy_peel_densest):
            result = solver(g)
            members = set(result.vertices.tolist())
            inside = sum(1 for u, v in g.edges() if u in members and v in members)
            assert result.avg_degree == pytest.approx(2 * inside / len(members))


class TestCliqueProperties:
    @SETTINGS
    @given(graphs(max_vertices=14, max_edges=40))
    def test_result_is_clique_and_bounded(self, g):
        if g.num_edges == 0:
            return
        clique = max_clique(g)
        assert is_clique(g, clique)
        # omega <= kmax + 1 (clique minus one vertex is in the core).
        assert len(clique) <= core_decomposition(g).kmax + 1

    @SETTINGS
    @given(graphs(max_vertices=12, max_edges=30))
    def test_maximality(self, g):
        if g.num_edges == 0:
            return
        clique = set(max_clique(g).tolist())
        # No vertex can extend the clique (it is maximal, hence maximum).
        for v in range(g.num_vertices):
            if v in clique:
                continue
            nbrs = set(map(int, g.neighbors(v)))
            assert not clique <= nbrs


class TestWeightedProperties:
    @SETTINGS
    @given(graphs(), st.integers(min_value=1, max_value=30))
    def test_incremental_equals_baseline(self, g, num_levels):
        if g.num_edges == 0:
            return
        rng = np.random.default_rng(42)
        weights = rng.uniform(0.1, 2.0, g.num_edges)
        params = {"edge_weights": weights, "num_levels": num_levels}
        fast = family_set_scores(g, "weighted", "weighted_average_degree", **params)
        slow = baseline_family_set_scores(g, "weighted", "weighted_average_degree", **params)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True, atol=1e-9)

    @SETTINGS
    @given(graphs())
    def test_levels_bounded_by_strength(self, g):
        if g.num_edges == 0:
            return
        rng = np.random.default_rng(7)
        weights = rng.uniform(0.1, 2.0, g.num_edges)
        decomp = s_core_decomposition(g, weights)
        from repro.weighted import arc_weights
        per_arc = arc_weights(g, weights)
        for v in range(g.num_vertices):
            strength = per_arc[g.indptr[v]:g.indptr[v + 1]].sum()
            assert decomp.level[v] <= strength + 1e-9

    @SETTINGS
    @given(graphs())
    def test_integer_weights_match_scaled_coreness(self, g):
        # With all weights = c, s-core levels are exactly c * coreness.
        if g.num_edges == 0:
            return
        weights = np.full(g.num_edges, 2.5)
        decomp = s_core_decomposition(g, weights)
        coreness = core_decomposition(g).coreness
        np.testing.assert_allclose(decomp.level, 2.5 * coreness, atol=1e-9)
