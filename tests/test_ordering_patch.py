"""The patched Algorithm 1 ordering after ``BestKIndex.apply``.

After a delta, ``core:ordering`` is rebuilt by re-sorting only the rows
whose neighbour order or tags can move (``repro.engine.levels._affected_rows``)
and copying every other row from the previous epoch's ordering.  The
contract is bit-identity: every ``LevelOrdering`` array equals
``order_vertices`` on a cold copy of the snapshot, at every epoch, and so
do the Problem 2 answers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import small_graph_zoo
from repro.core import order_vertices
from repro.dynamic import GraphDelta
from repro.engine import levels as engine_levels
from repro.generators import gnm_random_graph
from repro.graph import Graph
from repro.index import ArtifactStore, BestKIndex

FIELDS = ("levels", "rank", "indptr", "indices", "same", "plus", "high", "order", "level_start")
ZOO = small_graph_zoo()


def cold_copy(graph: Graph) -> Graph:
    return Graph.from_arrays(graph.indptr.copy(), graph.indices.copy())


def assert_matches_cold(index: BestKIndex, metric: str = "average_degree") -> None:
    # First, so a SortSpy sees the index's sort first.
    ordered = index.artifact("core", "ordering")
    cold_graph = cold_copy(index.graph)
    expected = order_vertices(cold_graph)
    for field in FIELDS:
        got, want = getattr(ordered, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field
    if index.graph.num_edges:
        warm = index.best_core(metric)
        cold = BestKIndex(cold_graph, store=False).best_core(metric)
        assert (warm.k, warm.score, warm.node_id) == (cold.k, cold.score, cold.node_id)
        assert np.array_equal(warm.vertices, cold.vertices)


def random_delta(rng: random.Random, graph: Graph, size: int, grow: int) -> GraphDelta:
    """A strict-valid delta: deletes of present edges, inserts of absent
    ones, endpoints up to ``grow`` ids past the current vertex count."""
    present = set(map(tuple, graph.edge_array().tolist()))
    pool = sorted(present)
    rng.shuffle(pool)
    n = graph.num_vertices + grow
    ins, dele = set(), set()
    for _ in range(size):
        if pool and rng.random() < 0.5:
            dele.add(pool.pop())
        elif n >= 2:
            u, v = rng.sample(range(n), 2)
            edge = (min(u, v), max(u, v))
            if edge not in present and edge not in dele:
                ins.add(edge)
    return GraphDelta.from_edges(sorted(ins), sorted(dele))


class SortSpy:
    """Records, per ``_sort_rows`` call, whether it sorted a row subset."""

    def __init__(self, monkeypatch):
        self.calls: list[bool] = []
        original = engine_levels._sort_rows

        def spy(graph, levels, order, rank, level_start, rows):
            self.calls.append(rows is not None)
            return original(graph, levels, order, rank, level_start, rows)

        monkeypatch.setattr(engine_levels, "_sort_rows", spy)

    def take(self) -> list[bool]:
        calls, self.calls = self.calls, []
        return calls


@pytest.mark.parametrize("cut_over", [True, False], ids=["cut_over", "always_patch"])
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    which=st.integers(0, len(ZOO) - 1),
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 2), st.booleans()),
        min_size=1, max_size=8,
    ),
)
def test_patched_ordering_stream_matches_cold(cut_over, monkeypatch, which, seed, steps):
    # On graphs this small most deltas touch over a quarter of the arcs, so
    # the fixed cut-over would hide the patch; the second run lifts it.
    if not cut_over:
        monkeypatch.setattr(engine_levels, "PATCH_MAX_ARC_SHARE", 1.0)
    rng = random.Random(seed)
    index = BestKIndex(ZOO[which][1], store=False)
    index.artifact("core", "ordering")
    for size, grow, query in steps:
        delta = random_delta(rng, index.graph, size, grow)
        if grow and rng.random() < 0.3:
            delta = GraphDelta(delta.insert, delta.delete, index.graph.num_vertices + grow)
        index.apply(delta)
        if query:
            assert_matches_cold(index)
    assert_matches_cold(index)


@pytest.fixture()
def graph():
    return gnm_random_graph(120, 480, seed=11)


class TestPatchPaths:
    def test_small_delta_patches_a_row_subset(self, graph, monkeypatch):
        index = BestKIndex(graph, store=False)
        index.artifact("core", "ordering")
        spy = SortSpy(monkeypatch)
        edge = tuple(graph.edge_array()[0])
        index.apply(GraphDelta.from_edges(delete=[edge]))
        assert_matches_cold(index)
        assert spy.take()[0] is True

    def test_isolated_vertex_growth(self, graph, monkeypatch):
        index = BestKIndex(graph, store=False)
        index.artifact("core", "ordering")
        spy = SortSpy(monkeypatch)
        n = graph.num_vertices
        index.apply(GraphDelta.from_edges(num_vertices=n + 5))
        assert_matches_cold(index)
        index.apply(GraphDelta.from_edges(insert=[(0, n + 7)], num_vertices=n + 9))
        assert index.graph.num_vertices == n + 9
        assert_matches_cold(index)
        assert spy.take()[0] is True

    def test_row_emptied_by_deletes(self, graph):
        index = BestKIndex(graph, store=False)
        index.artifact("core", "ordering")
        v = int(np.argmax(graph.degrees()))
        index.apply(GraphDelta.from_edges(delete=[(min(v, int(u)), max(v, int(u))) for u in graph.neighbors(v)]))
        assert index.graph.degree(v) == 0
        assert_matches_cold(index)

    def test_large_delta_takes_the_full_sort(self, graph, monkeypatch):
        index = BestKIndex(graph, store=False)
        index.artifact("core", "ordering")
        spy = SortSpy(monkeypatch)
        edges = graph.edge_array()
        index.apply(GraphDelta.from_edges(delete=edges[: len(edges) // 3]))
        assert_matches_cold(index)
        assert spy.take()[0] is False

    def test_two_applies_without_a_query_drop_the_base(self, graph, monkeypatch):
        index = BestKIndex(graph, store=False)
        index.artifact("core", "ordering")
        spy = SortSpy(monkeypatch)
        edges = graph.edge_array()
        index.apply(GraphDelta.from_edges(delete=[tuple(edges[0])]))
        index.apply(GraphDelta.from_edges(delete=[tuple(edges[1])]))
        assert "core" not in index._order_bases
        assert_matches_cold(index)
        assert spy.take()[0] is False
        # The next epoch has a fresh base again and patches.
        index.apply(GraphDelta.from_edges(insert=[tuple(edges[0])]))
        assert_matches_cold(index)
        assert spy.take()[0] is True

    def test_hydrated_order_is_a_patch_base(self, graph, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        BestKIndex(graph, store=store).best_core("average_degree")
        warm = BestKIndex(graph, store=store)
        spy = SortSpy(monkeypatch)
        warm.artifact("core", "ordering")
        assert spy.take() == []  # core:ordering came from the store
        edge = tuple(graph.edge_array()[5])
        warm.apply(GraphDelta.from_edges(delete=[edge], insert=[(0, graph.num_vertices)]))
        assert_matches_cold(warm)
        assert spy.take()[0] is True

    def test_noop_apply_keeps_the_built_ordering(self, graph):
        index = BestKIndex(graph, store=False)
        before = index.artifact("core", "ordering")
        index.apply(GraphDelta.from_edges(), strict=False)
        assert index.artifact("core", "ordering") is before
