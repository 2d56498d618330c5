"""Backend-equivalence suite for :mod:`repro.kernels`.

Every kernel must return the same values under the ``python`` reference
backend and the vectorised ``numpy`` backend — integer-for-integer for the
combinatorial kernels, to float addition-order tolerance for weighted
strengths.  The graph zoo covers the structures that historically break
peeling/intersection code: random graphs, stars, clique chains, paths, and
empty/singleton graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import core_decomposition, order_vertices
from repro.core.naive import coreness_naive
from repro.engine import build_level_forest, count_triplets, get_family, level_ordering
from repro.errors import UnknownBackendError
from repro.graph import Graph, GraphBuilder, connected_components
from repro.kernels import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    NumpyBackend,
    PythonBackend,
    available_backends,
    get_backend,
)
from repro.weighted.decomposition import arc_weights

from conftest import random_graph

PY = get_backend("python")
NP = get_backend("numpy")
NATIVE = get_backend("native")


def clique_chain(num_cliques: int, size: int) -> Graph:
    """Cliques of ``size`` vertices, consecutive cliques bridged by an edge."""
    edges = []
    for c in range(num_cliques):
        base = c * size
        edges.extend(
            (base + i, base + j) for i in range(size) for j in range(i + 1, size)
        )
        if c:
            edges.append((base - 1, base))
    return Graph.from_edges(edges)


def graph_zoo() -> list[tuple[str, Graph]]:
    zoo = [
        ("empty", Graph.empty(0)),
        ("singleton", Graph.empty(1)),
        ("isolated", Graph.empty(7)),
        ("single-edge", Graph.from_edges([(0, 1)])),
        ("path", Graph.from_edges([(i, i + 1) for i in range(40)])),
        ("star", Graph.from_edges([(0, i) for i in range(1, 24)])),
        ("clique-chain", clique_chain(4, 6)),
        ("two-cliques-isolated", clique_chain(2, 5)),
    ]
    for seed in range(6):
        zoo.append((f"random-{seed}", random_graph(20 + seed * 13, 30 + seed * 40, seed)))
    return zoo


ZOO = graph_zoo()
zoo_case = pytest.mark.parametrize(
    "graph", [g for _, g in ZOO], ids=[name for name, _ in ZOO]
)


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(available_backends()) >= {"python", "numpy", "native"}

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "numpy"
        assert isinstance(get_backend(), NumpyBackend)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert isinstance(get_backend(), PythonBackend)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_names_are_case_insensitive(self):
        assert isinstance(get_backend("NumPy"), NumpyBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError):
            get_backend("cuda")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        with pytest.raises(UnknownBackendError):
            get_backend()


class TestPeelEquivalence:
    @zoo_case
    def test_coreness_identical(self, graph):
        assert np.array_equal(PY.peel_coreness(graph), NP.peel_coreness(graph))

    @zoo_case
    def test_coreness_matches_naive_oracle(self, graph):
        assert NP.peel_coreness(graph).tolist() == coreness_naive(graph).tolist()

    @zoo_case
    def test_peel_exact_shared(self, graph):
        c1, p1 = PY.peel_exact(graph)
        c2, p2 = NP.peel_exact(graph)
        assert np.array_equal(c1, c2)
        assert np.array_equal(p1, p2)

    @zoo_case
    def test_core_decomposition_backend_argument(self, graph):
        fast = core_decomposition(graph, backend="numpy")
        slow = core_decomposition(graph, backend="python")
        assert np.array_equal(fast.coreness, slow.coreness)
        assert np.array_equal(fast.order, slow.order)
        assert np.array_equal(fast.shell_start, slow.shell_start)
        # Lazy under numpy, eager under python — but the same sequence.
        assert np.array_equal(fast.peel_order, slow.peel_order)


class TestTriangleEquivalence:
    @zoo_case
    def test_counts_identical(self, graph):
        assert PY.count_triangles(graph) == NP.count_triangles(graph)

    @zoo_case
    def test_per_vertex_identical(self, graph):
        assert np.array_equal(
            PY.triangles_per_vertex(graph), NP.triangles_per_vertex(graph)
        )

    @zoo_case
    def test_per_vertex_sums_to_three_per_triangle(self, graph):
        assert NP.triangles_per_vertex(graph).sum() == 3 * NP.count_triangles(graph)

    @zoo_case
    def test_edge_supports_identical(self, graph):
        edges = graph.edge_array()
        assert np.array_equal(
            PY.edge_supports(graph, edges), NP.edge_supports(graph, edges)
        )

    @zoo_case
    def test_edge_supports_sum_to_three_per_triangle(self, graph):
        edges = graph.edge_array()
        assert NP.edge_supports(graph, edges).sum() == 3 * NP.count_triangles(graph)


def _truss_everywhere(graph):
    """``truss_peel`` under all three backends; asserts they agree."""
    edges = graph.edge_array()
    want = PY.truss_peel(graph, edges)
    assert np.array_equal(NP.truss_peel(graph, edges), want)
    assert np.array_equal(NATIVE.truss_peel(graph, edges), want)
    return dict(zip(map(tuple, edges.tolist()), want.tolist()))


class TestTrussPeelEquivalence:
    """The frontier truss peel against the one-edge-at-a-time reference."""

    @zoo_case
    def test_truss_identical(self, graph):
        _truss_everywhere(graph)

    @pytest.mark.parametrize("n", (0, 5))
    def test_edgeless(self, n):
        assert _truss_everywhere(Graph.empty(n)) == {}

    def test_triangle_free(self):
        cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                (0, 4), (1, 5), (2, 6), (3, 7)]
        assert set(_truss_everywhere(Graph.from_edges(cube)).values()) == {2}

    def test_k6(self):
        k6 = Graph.from_edges([(i, j) for i in range(6) for j in range(i + 1, 6)])
        assert set(_truss_everywhere(k6).values()) == {6}

    def test_two_triangles_losing_edges_in_one_pass(self):
        # Triangles {0,1,5} and {0,1,6} share (0,1); their four other edges
        # have support 1 and leave together in the k = 1 pass, each
        # triangle losing two edges at once.  (0,1) also sits in the K5
        # {0..4}, so it must lose exactly one support per triangle (5 -> 3)
        # and keep truss number 5; a double charge would drop it to 1.
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(0, 5), (1, 5), (0, 6), (1, 6)]
        truss = _truss_everywhere(Graph.from_edges(edges))
        assert truss[(0, 1)] == 5
        assert all(truss[e] == 3 for e in ((0, 5), (1, 5), (0, 6), (1, 6)))
        assert all(truss[(i, j)] == 5 for i in range(5) for j in range(i + 1, 5))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=20), st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=90,
    ))
    def test_hypothesis_truss_identical(self, n, raw):
        builder = GraphBuilder()
        for v in range(n):
            builder.add_vertex(v)
        if n:
            builder.add_edges([(u % n, v % n) for u, v in raw])
        graph = builder.build()
        truss = _truss_everywhere(graph)
        # Supports bound truss numbers: t(e) - 2 <= support(e).
        support = PY.edge_supports(graph, graph.edge_array())
        assert all(t - 2 <= s for t, s in zip(truss.values(), support.tolist()))


def _descending_shells(ordered):
    decomp = ordered.decomposition
    return [decomp.shell(k) for k in range(decomp.kmax, -1, -1)]


class TestChargeKernelEquivalence:
    """The Algorithm 3/5 charging kernels behind the shared best-k index.

    The zoo already covers the ISSUE's hard cases: ``isolated`` (vertices
    with no adjacency at all) and ``path`` (kmax = 1, so every vertex sits
    in the bottom shells and the higher-rank suffixes are tiny).
    """

    @zoo_case
    def test_triangle_charges_identical(self, graph):
        ordered = order_vertices(graph)
        assert np.array_equal(
            PY.triangle_charges(ordered), NP.triangle_charges(ordered)
        )

    @zoo_case
    def test_charges_sum_to_triangle_count(self, graph):
        ordered = order_vertices(graph)
        assert int(NP.triangle_charges(ordered).sum()) == NP.count_triangles(graph)

    @zoo_case
    def test_triplet_group_deltas_identical(self, graph):
        ordered = order_vertices(graph)
        shells = _descending_shells(ordered)
        assert np.array_equal(
            PY.triplet_group_deltas(ordered, shells),
            NP.triplet_group_deltas(ordered, shells),
        )

    @zoo_case
    def test_triplet_deltas_sum_to_total(self, graph):
        # Top-down, the per-shell increments must add up to every triplet
        # of the whole graph (C_0 is the full vertex set).
        ordered = order_vertices(graph)
        shells = _descending_shells(ordered)
        assert int(NP.triplet_group_deltas(ordered, shells).sum()) == count_triplets(graph)

    @zoo_case
    def test_forest_node_groups_identical(self, graph):
        # Same kernels, grouped by forest node instead of by shell
        # (Algorithm 5's grouping) — also ordered by non-increasing k.
        from repro.core import build_core_forest

        ordered = order_vertices(graph)
        forest = build_core_forest(graph, ordered.decomposition)
        groups = [node.vertices for node in forest.nodes]
        assert np.array_equal(
            PY.triplet_group_deltas(ordered, groups),
            NP.triplet_group_deltas(ordered, groups),
        )


def _family_levels(graph, family):
    fam = get_family(family)
    params = {}
    if family == "weighted":
        params["edge_weights"] = np.random.default_rng(graph.num_edges).random(graph.num_edges)
    return fam.levels(fam.decompose(graph, **params), **params)


def _level_groupings(graph, levels):
    """``(ordering, shells, forest node groups)`` of one level array."""
    ordering = level_ordering(graph, levels)
    start = ordering.level_start
    shells = [ordering.order[start[k]:start[k + 1]] for k in range(ordering.max_level, -1, -1)]
    return ordering, shells, build_level_forest(graph, levels).node_vertex_groups()


class TestTripletGroupings:
    """``triplet_group_deltas`` for every grouping a caller passes.

    The numpy pass relies on equal-level groups never sharing a
    higher-level neighbour; the python loop does not, so it is the oracle.
    """

    @pytest.mark.parametrize("family", ["truss", "weighted"])
    @zoo_case
    def test_level_shells_and_nodes_identical(self, graph, family):
        ordering, shells, nodes = _level_groupings(graph, _family_levels(graph, family))
        for groups in (shells, nodes):
            want = PY.triplet_group_deltas(ordering, groups)
            assert np.array_equal(NP.triplet_group_deltas(ordering, groups), want)
            assert int(want.sum()) == count_triplets(graph)

    @zoo_case
    def test_empty_groups_charge_nothing(self, graph):
        ordered = order_vertices(graph)
        shells = _descending_shells(ordered)
        empty = np.empty(0, dtype=np.int64)
        padded = [empty] + [g for shell in shells for g in (shell, empty)]
        got = NP.triplet_group_deltas(ordered, padded)
        assert np.array_equal(got, PY.triplet_group_deltas(ordered, padded))
        assert np.array_equal(got[1::2], PY.triplet_group_deltas(ordered, shells))
        assert not got[0::2].any()

    @zoo_case
    def test_ungrouped_vertices_never_count(self, graph):
        # Drop every other shell: its vertices join no group, so they are
        # in neither side of any later group's frontier counts.
        ordered = order_vertices(graph)
        partial = _descending_shells(ordered)[::2]
        assert np.array_equal(
            NP.triplet_group_deltas(ordered, partial),
            PY.triplet_group_deltas(ordered, partial),
        )

    def test_empty_graph(self):
        ordered = order_vertices(Graph.empty(0))
        for groups in ([], [np.empty(0, dtype=np.int64)] * 2):
            got = NP.triplet_group_deltas(ordered, groups)
            assert got.dtype == np.int64
            assert got.tolist() == [0] * len(groups)

    def test_isolated_only(self):
        graph = Graph.empty(5)
        ordered = order_vertices(graph)
        for groups in ([np.arange(5)], [np.array([v]) for v in range(5)]):
            assert NP.triplet_group_deltas(ordered, groups).tolist() == [0] * len(groups)

    @pytest.mark.parametrize("scale", [1, 3])
    def test_level_gap(self, scale):
        # A K6 (coreness 5) bridged to a path (coreness 1): levels 2-4 are
        # empty shells, and scaling the levels widens the gap further.
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(5, 6), (6, 7), (7, 8), (0, 9)]
        graph = Graph.from_edges(edges)
        levels = core_decomposition(graph).coreness * scale
        ordering, shells, nodes = _level_groupings(graph, levels)
        assert sum(len(shell) == 0 for shell in shells) >= 3
        for groups in (shells, nodes):
            want = PY.triplet_group_deltas(ordering, groups)
            assert np.array_equal(NP.triplet_group_deltas(ordering, groups), want)
            assert int(want.sum()) == count_triplets(graph)


class TestNativeEquivalence:
    """The native backend against the reference, over the whole zoo.

    Holds regardless of whether each kernel runs JIT-compiled or fell
    back to numpy — fallback is bit-identical by construction, and these
    tests are what enforce that claim.
    """

    @zoo_case
    def test_peel_identical(self, graph):
        coreness, order = PY.peel_exact(graph)
        c2, p2 = NATIVE.peel_exact(graph)
        assert np.array_equal(coreness, c2)
        assert np.array_equal(order, p2)
        assert np.array_equal(NATIVE.peel_coreness(graph), coreness)

    @zoo_case
    def test_hindex_round_identical(self, graph):
        estimate = graph.degrees().astype(np.int64)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        want = PY.hindex_fixpoint(graph, estimate, vertices)
        assert np.array_equal(NP.hindex_fixpoint(graph, estimate, vertices), want)
        assert np.array_equal(NATIVE.hindex_fixpoint(graph, estimate, vertices), want)

    @zoo_case
    def test_edge_supports_identical(self, graph):
        edges = graph.edge_array()
        assert np.array_equal(
            NATIVE.edge_supports(graph, edges), PY.edge_supports(graph, edges)
        )

    @zoo_case
    def test_triangle_charges_identical(self, graph):
        ordered = order_vertices(graph)
        assert np.array_equal(
            NATIVE.triangle_charges(ordered), PY.triangle_charges(ordered)
        )

    @zoo_case
    def test_triplet_group_deltas_identical(self, graph):
        ordered = order_vertices(graph)
        shells = _descending_shells(ordered)
        assert np.array_equal(
            NATIVE.triplet_group_deltas(ordered, shells),
            PY.triplet_group_deltas(ordered, shells),
        )

    @zoo_case
    def test_forest_node_groups_identical(self, graph):
        from repro.core import build_core_forest

        ordered = order_vertices(graph)
        groups = build_core_forest(graph, ordered.decomposition).node_vertex_groups()
        assert np.array_equal(
            NATIVE.triplet_group_deltas(ordered, groups),
            PY.triplet_group_deltas(ordered, groups),
        )

    @zoo_case
    def test_vertex_strengths_match(self, graph):
        m = graph.num_edges
        arcs = np.empty(0, dtype=np.float64)
        if m:
            weights = np.random.default_rng(m).random(m)
            arcs = arc_weights(graph, weights)
        np.testing.assert_allclose(
            NATIVE.vertex_strengths(graph, arcs),
            PY.vertex_strengths(graph, arcs),
            atol=1e-12,
        )

    @zoo_case
    def test_delegated_triangles_identical(self, graph):
        assert NATIVE.count_triangles(graph) == PY.count_triangles(graph)
        assert np.array_equal(
            NATIVE.triangles_per_vertex(graph), PY.triangles_per_vertex(graph)
        )


class TestComponentEquivalence:
    @zoo_case
    def test_full_graph_labels_identical(self, graph):
        n = graph.num_vertices
        active = np.ones(n, dtype=bool)
        labels_py, count_py = PY.connected_components(graph, active)
        labels_np, count_np = NP.connected_components(graph, active)
        assert count_py == count_np
        assert np.array_equal(labels_py, labels_np)

    @zoo_case
    def test_subset_labels_identical(self, graph):
        n = graph.num_vertices
        rng = np.random.default_rng(n)
        for trial in range(3):
            active = rng.random(n) < 0.6 if n else np.zeros(0, dtype=bool)
            labels_py, count_py = PY.connected_components(graph, active)
            labels_np, count_np = NP.connected_components(graph, active)
            assert count_py == count_np
            assert np.array_equal(labels_py, labels_np)

    def test_views_entry_point_dispatches(self, ):
        g = clique_chain(3, 4)
        labels_py, count_py = connected_components(g, backend="python")
        labels_np, count_np = connected_components(g, backend="numpy")
        assert count_py == count_np
        assert np.array_equal(labels_py, labels_np)


class TestStrengthEquivalence:
    @zoo_case
    def test_strengths_close(self, graph):
        m = graph.num_edges
        if m == 0:
            weights = np.empty(0, dtype=np.float64)
            arcs = np.empty(0, dtype=np.float64)
        else:
            weights = np.random.default_rng(m).random(m)
            arcs = arc_weights(graph, weights)
        np.testing.assert_allclose(
            PY.vertex_strengths(graph, arcs),
            NP.vertex_strengths(graph, arcs),
            atol=1e-12,
        )

    @zoo_case
    def test_integer_weights_exact(self, graph):
        m = graph.num_edges
        weights = np.random.default_rng(m).integers(1, 10, m).astype(np.float64)
        arcs = arc_weights(graph, weights) if m else np.empty(0, dtype=np.float64)
        assert np.array_equal(
            PY.vertex_strengths(graph, arcs), NP.vertex_strengths(graph, arcs)
        )


class TestLazyPeelOrder:
    def test_numpy_backend_defers_peel_order(self):
        g = clique_chain(3, 5)
        decomp = core_decomposition(g, backend="numpy")
        assert decomp._peel_order is None
        peel = decomp.peel_order
        assert decomp._peel_order is not None
        # Cached and read-only after first access.
        assert decomp.peel_order is peel
        with pytest.raises(ValueError):
            peel[0] = 1

    def test_python_backend_is_eager(self):
        g = clique_chain(3, 5)
        # Peel-engine specific: the sharded fixpoint never peels, so its
        # order is always lazy — pin the engine against REPRO_ENGINE.
        decomp = core_decomposition(g, backend="python", engine="peel")
        assert decomp._peel_order is not None
