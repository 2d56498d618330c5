"""Tests for incremental coreness maintenance on single-edge streams.

Every edge update is one :class:`~repro.dynamic.GraphDelta` applied through
:meth:`~repro.dynamic.VersionedGraph.apply`, with the coreness repaired by
:func:`~repro.dynamic.incremental_core_numbers` under each forced
maintenance plan (one batched ``subcore_repair`` kernel dispatch, and
re-peel).  The per-plan loop lives inside each test so every case checks
both outcomes against the same stream.
"""

import numpy as np
import pytest

from repro.core import core_decomposition
from repro.dynamic import GraphDelta, VersionedGraph
from repro.errors import GraphDeltaError
from repro.graph import Graph
from conftest import MAINTENANCE_PLANS, CorenessStream, figure2_edges, random_graph


def first_missing_edges(graph: Graph, count: int) -> list[tuple[int, int]]:
    """The first ``count`` absent vertex pairs in lexicographic order."""
    missing = []
    for u in range(graph.num_vertices):
        for v in range(u + 1, graph.num_vertices):
            if not graph.has_edge(u, v):
                missing.append((u, v))
                if len(missing) == count:
                    return missing
    return missing


class TestConstruction:
    def test_from_graph(self, figure2):
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(figure2, plan)
            assert stream.graph.num_vertices == 12
            assert stream.graph.num_edges == 19
            stream.assert_exact()

    def test_empty_start(self):
        stream = CorenessStream(Graph.empty(), "batched")
        assert stream.graph.num_vertices == 0
        assert len(stream.coreness) == 0

    def test_snapshot_round_trip(self, figure2):
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(figure2, plan)
            assert stream.graph == figure2
            stream.insert(0, 11)
            stream.delete(0, 11)
            # Same CSR content, but a new epoch with its own identity.
            assert stream.graph == figure2
            assert stream.versioned.epoch == 2
            assert stream.versioned.digest != VersionedGraph(figure2).digest
            stream.assert_exact()


class TestInsertions:
    def test_build_figure2_incrementally(self):
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(Graph.empty(), plan)
            for u, v in figure2_edges():
                stream.insert(u, v)
                stream.assert_exact()
            assert stream.coreness.tolist() == [3, 3, 3, 3, 2, 2, 2, 2, 3, 3, 3, 3]

    def test_insert_raises_coreness_by_at_most_one(self):
        g = random_graph(25, 60, seed=1)
        (edge,) = first_missing_edges(g, 1)
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(g, plan)
            before = stream.coreness.copy()
            stream.insert(*edge)
            diff = stream.coreness - before
            assert ((diff >= 0) & (diff <= 1)).all()
            stream.assert_exact()

    def test_new_vertices_created(self):
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(Graph.empty(), plan)
            stream.insert(0, 5)  # an endpoint past n grows the graph
            assert stream.graph.num_vertices == 6
            assert stream.coreness[0] == 1
            assert stream.coreness[3] == 0
            # Isolated growth only through the delta's vertex-count floor.
            stream.apply(GraphDelta.from_edges(insert=[(1, 2)], num_vertices=9))
            assert stream.graph.num_vertices == 9
            assert stream.coreness.tolist() == [1, 1, 1, 0, 0, 1, 0, 0, 0]
            stream.assert_exact()

    def test_rejects_self_loop(self):
        with pytest.raises(GraphDeltaError):
            GraphDelta.from_edges(insert=[(3, 3)])

    def test_rejects_duplicate(self, figure2):
        with pytest.raises(GraphDeltaError):
            VersionedGraph(figure2).apply(GraphDelta.from_edges(insert=[(0, 1)]))

    def test_closing_a_k4(self):
        # Path 0-1-2-3 plus chords: closing the last edge lifts everyone to 3.
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(Graph.empty(), plan)
            for u, v in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]:
                stream.insert(u, v)
            assert stream.coreness.tolist() == [2, 2, 2, 2]
            stream.insert(0, 3)
            assert stream.coreness.tolist() == [3, 3, 3, 3]


class TestDeletions:
    def test_dismantle_figure2(self, figure2):
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(figure2, plan)
            for u, v in figure2.edges():
                stream.delete(u, v)
                stream.assert_exact()
            assert stream.graph.num_edges == 0
            assert stream.coreness.max() == 0

    def test_remove_missing_edge(self, figure2):
        with pytest.raises(GraphDeltaError):
            VersionedGraph(figure2).apply(GraphDelta.from_edges(delete=[(0, 11)]))

    def test_breaking_a_k4(self):
        k4 = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(k4, plan)
            assert stream.coreness.max() == 3
            stream.delete(0, 1)
            assert stream.coreness.tolist() == [2, 2, 2, 2]

    def test_deletion_drops_by_at_most_one(self):
        g = random_graph(25, 70, seed=2)
        edge = next(iter(g.edges()))
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(g, plan)
            before = stream.coreness.copy()
            stream.delete(*edge)
            diff = before - stream.coreness
            assert ((diff >= 0) & (diff <= 1)).all()
            stream.assert_exact()


class TestRandomStreams:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_stream_matches_recomputation(self, seed):
        n = 18
        for plan in MAINTENANCE_PLANS:
            rng = np.random.default_rng(seed)
            stream = CorenessStream(Graph.empty(n), plan)
            present: set[tuple[int, int]] = set()
            for _ in range(120):
                if present and rng.random() < 0.35:
                    edge = sorted(present)[int(rng.integers(0, len(present)))]
                    present.discard(edge)
                    stream.delete(*edge)
                else:
                    u, v = rng.integers(0, n, 2)
                    u, v = int(min(u, v)), int(max(u, v))
                    if u == v or (u, v) in present:
                        continue
                    present.add((u, v))
                    stream.insert(u, v)
                stream.assert_exact()

    def test_insert_then_delete_round_trip(self):
        g = random_graph(30, 80, seed=5)
        extra = first_missing_edges(g, 15)
        original = core_decomposition(g).coreness
        for plan in MAINTENANCE_PLANS:
            stream = CorenessStream(g, plan)
            for u, v in extra:
                stream.insert(u, v)
            for u, v in reversed(extra):
                stream.delete(u, v)
            np.testing.assert_array_equal(stream.coreness, original)
            assert stream.graph == g
