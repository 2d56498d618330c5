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
from repro.engine import (
    build_level_forest,
    count_triplets,
    get_family,
    level_ordering,
    triangle_level_increments,
)
from repro.errors import UnknownBackendError
from repro.generators import powerlaw_chung_lu
from repro.graph import Graph, GraphBuilder, connected_components
from repro.kernels import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    NativeBackend,
    NumpyBackend,
    PythonBackend,
    available_backends,
    get_backend,
)
from repro.kernels import _native_impl, numpy_backend
from repro.kernels.numpy_backend import _KeyTable
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

    def test_default_is_native_with_numpy_fallback(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "native"
        backend = get_backend()
        assert isinstance(backend, NativeBackend)
        # Whatever it does not run compiled, it runs as numpy.
        assert isinstance(backend, NumpyBackend)

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
        # Supports bound truss numbers: t(e) - 2 <= support(e), the
        # support being the endpoints' common neighbourhood.
        adj = [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]
        for (u, v), t in truss.items():
            assert t - 2 <= len(adj[u] & adj[v])


def _keys_homed_at(slot: int, count: int, table_size: int) -> list[int]:
    """The first ``count`` non-negative keys whose home slot is ``slot`` in
    a table built from ``table_size`` keys (found by brute force)."""
    probe = _KeyTable(np.arange(table_size, dtype=np.int64))
    candidates = np.arange(1 << 16, dtype=np.int64)
    found = candidates[probe.home(candidates) == slot][:count]
    assert len(found) == count
    return found.tolist()


class TestKeyTable:
    """The exact open-addressing key set behind every numpy triangle probe."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(0, 1 << 40), max_size=60),
        st.lists(st.integers(0, 1 << 40), max_size=60),
        st.lists(st.integers(0, 59), max_size=30),
    )
    def test_contains_matches_isin(self, keys, absent, picks):
        keys = np.unique(np.asarray(keys, dtype=np.int64))
        # Needles: present keys (some repeated) mixed with arbitrary ones.
        present = keys[np.asarray(picks, dtype=np.int64) % len(keys)] if len(keys) else []
        needles = np.asarray(list(present) + absent + list(present), dtype=np.int64)
        got = _KeyTable(keys).contains(needles)
        assert got.dtype == bool
        assert np.array_equal(got, np.isin(needles, keys))

    def test_empty_key_set(self):
        table = _KeyTable(np.empty(0, dtype=np.int64))
        assert not table.contains(np.array([0, 1, 7, 1 << 40])).any()
        assert table.contains(np.empty(0, dtype=np.int64)).shape == (0,)

    def test_single_key(self):
        table = _KeyTable(np.array([42], dtype=np.int64))
        needles = np.array([42, 41, 43, 0, 42], dtype=np.int64)
        assert table.contains(needles).tolist() == [True, False, False, False, True]

    def test_collision_chain(self):
        # Three keys share home slot 0, and a fourth (absent) needle does
        # too: the keys fill slots 0..2 whatever order they are written in,
        # and the absent needle walks the whole chain to the empty slot 3.
        *keys, stranger = _keys_homed_at(0, 4, table_size=3)
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            table = _KeyTable(np.array([keys[i] for i in order], dtype=np.int64))
            assert sorted(table.slots[:3].tolist()) == sorted(keys)
            assert table.slots[3] == -1
            needles = np.array(keys + [stranger] + keys[::-1], dtype=np.int64)
            assert table.contains(needles).tolist() == [True] * 3 + [False] + [True] * 3

    def test_wraps_from_last_slot_to_first(self):
        size = len(_KeyTable(np.arange(3, dtype=np.int64)).slots)
        *keys, stranger = _keys_homed_at(size - 1, 4, table_size=3)
        table = _KeyTable(np.array(keys, dtype=np.int64))
        # One key keeps the last slot; the other two wrap to slots 0 and 1.
        assert table.slots[-1] in keys
        assert sorted([table.slots[-1], *table.slots[:2]]) == sorted(keys)
        needles = np.array([stranger, *keys], dtype=np.int64)
        assert table.contains(needles).tolist() == [False, True, True, True]


def _multi_chunk_graphs():
    graphs = []
    for seed in range(3):
        g = powerlaw_chung_lu(300, 8.0, 2.3, seed=seed)
        # Three trailing isolated vertices on top of the generator's own.
        graphs.append((f"chung-lu-{seed}", Graph.from_edges(
            g.edge_array(), num_vertices=g.num_vertices + 3
        )))
    graphs.append(("clique", Graph.from_edges(
        [(i, j) for i in range(14) for j in range(i + 1, 14)]
    )))
    graphs.append(("star", Graph.from_edges([(0, i) for i in range(1, 40)])))
    graphs.append(("clique-chain", clique_chain(3, 7)))
    return graphs


MULTI_CHUNK = _multi_chunk_graphs()


class TestMultiChunkProbes:
    """Numpy triangle kernels with probe batches cut to a few needles, so
    every graph with a triangle runs many `_chunk_edges` batches."""

    @pytest.fixture()
    def batches(self, monkeypatch):
        counts = []
        chunk_edges = numpy_backend._chunk_edges

        def counting(block_len):
            chunks = list(chunk_edges(block_len))
            counts.append(len(chunks))
            return iter(chunks)

        monkeypatch.setattr(numpy_backend, "_CHUNK", 5)
        monkeypatch.setattr(numpy_backend, "_chunk_edges", counting)
        return counts

    @pytest.mark.parametrize(
        "graph", [g for _, g in MULTI_CHUNK], ids=[name for name, _ in MULTI_CHUNK]
    )
    def test_kernels_match_reference(self, graph, batches):
        edges = graph.edge_array()
        ordered = order_vertices(graph)
        assert np.array_equal(
            NP.triangle_charges(ordered), PY.triangle_charges(ordered)
        )
        triangles = PY.count_triangles(graph)
        assert NP.count_triangles(graph) == triangles
        assert np.array_equal(NP.truss_peel(graph, edges), PY.truss_peel(graph, edges))
        # A triangle-free graph (the star) probes nothing, so one batch.
        assert max(batches) > 1 or triangles == 0


def _shell_deltas(ordering, triplets):
    """Per-level triplet increments: the charges summed over each shell."""
    return triangle_level_increments(
        ordering, ordering.order, ordering.level_start,
        charges=np.zeros(len(triplets), dtype=np.int64), triplets=triplets,
    )[1]


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
        ordering = order_vertices(graph)
        want = PY.triplet_charges(ordering)
        got = NP.triplet_charges(ordering)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(_shell_deltas(ordering, got), _shell_deltas(ordering, want))

    @zoo_case
    def test_triplet_deltas_sum_to_total(self, graph):
        # Top-down, the per-shell increments must add up to every triplet
        # of the whole graph (C_0 is the full vertex set).
        ordering = order_vertices(graph)
        charges = NP.triplet_charges(ordering)
        assert int(charges.sum()) == count_triplets(graph)
        assert int(_shell_deltas(ordering, charges).sum()) == count_triplets(graph)

    @zoo_case
    def test_forest_node_groups_identical(self, graph):
        # Same charges, grouped by forest node instead of by shell
        # (Algorithm 5's grouping).
        from repro.core import build_core_forest

        ordered = order_vertices(graph)
        forest = build_core_forest(graph, ordered=ordered)
        want = forest.node_sums(PY.triplet_charges(ordered))
        assert np.array_equal(forest.node_sums(NP.triplet_charges(ordered)), want)
        assert int(want.sum()) == count_triplets(graph)


def _family_levels(graph, family):
    fam = get_family(family)
    params = {}
    if family == "weighted":
        params["edge_weights"] = np.random.default_rng(graph.num_edges).random(graph.num_edges)
    return fam.levels(fam.decompose(graph, **params), **params)


def _level_groupings(graph, levels):
    """``(ordering, forest)`` of one level array."""
    ordering = level_ordering(graph, levels)
    return ordering, build_level_forest(graph, levels, ordering=ordering)


class TestTripletGroupings:
    """``triplet_charges`` regrouped per shell and per forest node.

    The python loop is the oracle for the numpy pass; both groupings must
    add up to every triplet of the graph.
    """

    @pytest.mark.parametrize("family", ["truss", "weighted"])
    @zoo_case
    def test_level_shells_and_nodes_identical(self, graph, family):
        ordering, forest = _level_groupings(graph, _family_levels(graph, family))
        want = PY.triplet_charges(ordering)
        got = NP.triplet_charges(ordering)
        assert np.array_equal(got, want)
        for regroup in (lambda w: _shell_deltas(ordering, w), forest.node_sums):
            assert np.array_equal(regroup(got), regroup(want))
            assert int(regroup(want).sum()) == count_triplets(graph)

    @zoo_case
    def test_empty_groups_charge_nothing(self, graph):
        # Doubling the coreness leaves every odd level an empty shell: those
        # charge nothing, and the others keep the unscaled increments.
        coreness = core_decomposition(graph).coreness
        plain = level_ordering(graph, coreness)
        padded = level_ordering(graph, 2 * coreness)
        got = _shell_deltas(padded, NP.triplet_charges(padded))
        assert np.array_equal(got, _shell_deltas(padded, PY.triplet_charges(padded)))
        assert np.array_equal(got[0::2], _shell_deltas(plain, PY.triplet_charges(plain)))
        assert not got[1::2].any()

    def test_empty_graph(self):
        ordering = order_vertices(Graph.empty(0))
        for backend in (PY, NP, NATIVE):
            got = backend.triplet_charges(ordering)
            assert got.dtype == np.int64
            assert got.tolist() == []
        assert _shell_deltas(ordering, NP.triplet_charges(ordering)).tolist() == [0]

    def test_isolated_only(self):
        graph = Graph.empty(5)
        ordered = order_vertices(graph)
        forest = build_level_forest(graph, np.zeros(5, dtype=np.int64))
        for backend in (PY, NP, NATIVE):
            got = backend.triplet_charges(ordered)
            assert got.tolist() == [0] * 5
            assert forest.node_sums(got).tolist() == [0] * 5

    @pytest.mark.parametrize("scale", [1, 3])
    def test_level_gap(self, scale):
        # A K6 (coreness 5) bridged to a path (coreness 1): levels 2-4 are
        # empty shells, and scaling the levels widens the gap further.
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(5, 6), (6, 7), (7, 8), (0, 9)]
        graph = Graph.from_edges(edges)
        levels = core_decomposition(graph).coreness * scale
        ordering, forest = _level_groupings(graph, levels)
        want = PY.triplet_charges(ordering)
        assert np.array_equal(NP.triplet_charges(ordering), want)
        shells = _shell_deltas(ordering, want)
        assert (shells == 0).sum() >= 3
        for regrouped in (shells, forest.node_sums(want)):
            assert int(regrouped.sum()) == count_triplets(graph)
        # The K6 shell appears on its own: C(5, 2) triplets per centre.
        assert shells[5 * scale] == 6 * 10


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
    def test_triangle_charges_identical(self, graph):
        ordered = order_vertices(graph)
        assert np.array_equal(
            NATIVE.triangle_charges(ordered), PY.triangle_charges(ordered)
        )

    @zoo_case
    def test_uncompiled_triangle_charges_identical(self, graph):
        # The loop source the C unit mirrors, run as plain python, against
        # the independent numpy formulation.
        ordered = order_vertices(graph)
        got = np.zeros(graph.num_vertices, dtype=np.int64)
        _native_impl.triangle_charges(
            graph.num_vertices, ordered.indptr, ordered.indices,
            ordered.rank[ordered.indices], ordered.high, got,
        )
        assert np.array_equal(got, NP.triangle_charges(ordered))

    @zoo_case
    def test_triplet_group_deltas_identical(self, graph):
        ordered = order_vertices(graph)
        want = NP.triplet_charges(ordered)
        assert np.array_equal(NATIVE.triplet_charges(ordered), want)
        # The loop source the C unit mirrors, run as plain python.
        got = np.zeros(graph.num_vertices, dtype=np.int64)
        _native_impl.triplet_charges(
            graph.num_vertices, ordered.indptr, ordered.indices, ordered.same, got
        )
        assert np.array_equal(got, want)

    @zoo_case
    def test_forest_node_groups_identical(self, graph):
        from repro.core import build_core_forest

        ordered = order_vertices(graph)
        forest = build_core_forest(graph, ordered=ordered)
        assert np.array_equal(
            forest.node_sums(NATIVE.triplet_charges(ordered)),
            forest.node_sums(PY.triplet_charges(ordered)),
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
        decomp = core_decomposition(g, backend="python")
        assert decomp._peel_order is not None
