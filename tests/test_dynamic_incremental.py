"""Tests for ``repro.dynamic``: deltas, versioned snapshots, maintenance.

The load-bearing property is **churn equivalence**: after any stream of
insert/delete deltas, ``incremental_core_numbers`` must be bit-identical
to a full ``core_decomposition`` of the final snapshot — at *every*
epoch, for every backend, including the pathological deltas (duplicate
inserts, deletes of missing edges, isolated-vertex growth, a delta that
empties the graph).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from conftest import small_graph_zoo
from repro.core import core_decomposition
from repro.dynamic import (
    GraphDelta,
    VersionedGraph,
    edges_from_file,
    incremental_core_numbers,
    stamp_epoch_digest,
)
from repro.dynamic.versioned import edge_set_hash, edge_set_token
from repro.errors import GraphDeltaError
from repro.generators import gnm_random_graph, powerlaw_chung_lu
from repro.graph import Graph


def edge_set(graph: Graph) -> set[tuple[int, int]]:
    return set(map(tuple, graph.edge_array().tolist()))


def random_delta(
    rng: random.Random, present: set[tuple[int, int]], n: int, size: int
) -> GraphDelta:
    """A valid effective delta against the edge set, mutating it in place."""
    ins: list[tuple[int, int]] = []
    dele: list[tuple[int, int]] = []
    touched: set[tuple[int, int]] = set()
    for _ in range(size):
        if present and rng.random() < 0.45:
            edge = rng.choice(sorted(present - touched) or sorted(touched))
            if edge in touched:
                continue
            present.discard(edge)
            touched.add(edge)
            dele.append(edge)
        else:
            for _ in range(64):
                u, v = rng.randrange(n), rng.randrange(n)
                edge = (min(u, v), max(u, v))
                if u != v and edge not in present and edge not in touched:
                    present.add(edge)
                    touched.add(edge)
                    ins.append(edge)
                    break
    return GraphDelta.from_edges(ins, dele)


class TestGraphDelta:
    def test_canonicalises_and_dedups(self):
        delta = GraphDelta.from_edges(insert=[(3, 1), (1, 3), (0, 2)])
        assert delta.insert.tolist() == [[0, 2], [1, 3]]
        assert delta.num_changes == 2 and not delta.is_empty

    def test_rejects_self_loop(self):
        with pytest.raises(GraphDeltaError):
            GraphDelta.from_edges(insert=[(2, 2)])

    def test_rejects_negative_id(self):
        with pytest.raises(GraphDeltaError):
            GraphDelta.from_edges(delete=[(-1, 2)])

    def test_rejects_insert_delete_overlap(self):
        with pytest.raises(GraphDeltaError):
            GraphDelta.from_edges(insert=[(0, 1)], delete=[(1, 0)])

    def test_rejects_malformed_pairs(self):
        with pytest.raises(GraphDeltaError):
            GraphDelta.from_edges(insert=[(0, 1, 2)])

    def test_arrays_are_frozen(self):
        delta = GraphDelta.from_edges(insert=[(0, 1)])
        with pytest.raises(ValueError):
            delta.insert[0, 0] = 5

    def test_touched_and_growth(self):
        delta = GraphDelta.from_edges(insert=[(2, 7)], num_vertices=20)
        assert delta.touched_vertices().tolist() == [2, 7]
        assert delta.min_num_vertices(4) == 20
        assert GraphDelta.from_edges(insert=[(2, 7)]).min_num_vertices(4) == 8

    def test_empty_delta(self):
        delta = GraphDelta.from_edges()
        assert delta.is_empty and delta.touched_vertices().size == 0

    def test_edges_from_file(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text("# comment\n0 1\n\n2 3  # trailing\n")
        assert edges_from_file(path).tolist() == [[0, 1], [2, 3]]

    def test_edges_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphDeltaError):
            edges_from_file(path)


class TestVersionedGraph:
    def test_apply_matches_from_edges(self, figure2):
        vg = VersionedGraph(figure2)
        applied = vg.apply(GraphDelta.from_edges(insert=[(0, 8)], delete=[(4, 5)]))
        expected = edge_set(figure2) - {(4, 5)} | {(0, 8)}
        assert applied.graph == Graph.from_edges(sorted(expected), num_vertices=12)
        assert applied.epoch == 1 and applied.lineage == vg.lineage
        assert applied.parent_digest == vg.digest

    def test_strict_rejects_noop_edges(self, triangle):
        vg = VersionedGraph(triangle)
        with pytest.raises(GraphDeltaError):
            vg.apply(GraphDelta.from_edges(insert=[(0, 1)]))
        with pytest.raises(GraphDeltaError):
            vg.apply(GraphDelta.from_edges(delete=[(0, 9)]))

    def test_lenient_drops_noop_edges(self, triangle):
        vg = VersionedGraph(triangle)
        nxt = vg.apply(
            GraphDelta.from_edges(insert=[(0, 1), (0, 3)], delete=[(1, 9)]),
            strict=False,
        )
        assert nxt.graph.num_edges == 4
        assert len(nxt.applied.insert) == 1 and len(nxt.applied.delete) == 0

    def test_isolated_vertex_growth(self, triangle):
        vg = VersionedGraph(triangle)
        nxt = vg.apply(GraphDelta.from_edges(num_vertices=10))
        assert nxt.graph.num_vertices == 10 and nxt.graph.num_edges == 3

    def test_epoch_digest_differs_from_content(self, triangle):
        vg = VersionedGraph(triangle)
        nxt = vg.apply(GraphDelta.from_edges(insert=[(0, 3)]))
        plain = Graph.from_arrays(nxt.graph.indptr, nxt.graph.indices, False)
        assert nxt.digest != plain.content_digest()
        token = edge_set_token(4, edge_set_hash(plain.edge_array()))
        assert nxt.digest == stamp_epoch_digest(vg.lineage, 1, token)

    def test_same_content_different_epochs_never_alias(self, triangle):
        # Insert then delete the same edge: content returns, identity must not.
        vg = VersionedGraph(triangle)
        e1 = vg.apply(GraphDelta.from_edges(insert=[(0, 3)]))
        e2 = e1.apply(GraphDelta.from_edges(delete=[(0, 3)]))
        # Same edges as the base (vertex count grew to 4 and stays).
        assert e2.graph == Graph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=4)
        assert e2.digest != vg.digest and e2.digest != e1.digest

    def test_same_edge_set_at_two_epochs_stamps_differently(self, triangle):
        # Delete then re-insert an edge: epochs 0 and 2 hold the same edge
        # set and vertex count, so the content token is equal...
        vg = VersionedGraph(triangle)
        e1 = vg.apply(GraphDelta.from_edges(delete=[(0, 1)]))
        e2 = e1.apply(GraphDelta.from_edges(insert=[(0, 1)]))
        e3 = e2.apply(GraphDelta.from_edges(num_vertices=3))
        assert e2.edge_hash == vg.edge_hash == e3.edge_hash
        # ...but every stamp differs, the lineage and epoch are folded in.
        digests = {vg.digest, e1.digest, e2.digest, e3.digest}
        assert len(digests) == 4
        token = edge_set_token(3, vg.edge_hash)
        assert e2.digest == stamp_epoch_digest(vg.lineage, 2, token)
        assert e3.digest == stamp_epoch_digest(vg.lineage, 3, token)

    def test_maintained_edge_hash_matches_recomputed(self):
        # 50 seeded epochs with vertex growth and one delta that deletes
        # every edge: the O(delta) hash equals the hash of the arrays.
        rng = random.Random(50)
        graph = gnm_random_graph(30, 70, seed=5)
        vg = VersionedGraph(graph)
        present = edge_set(graph)
        for epoch in range(50):
            n = vg.num_vertices
            if epoch == 25:
                delta = GraphDelta.from_edges(delete=sorted(present))
                present.clear()
            elif epoch % 7 == 3:
                delta = GraphDelta.from_edges(num_vertices=n + rng.randrange(1, 4))
            else:
                delta = random_delta(rng, present, n + rng.randrange(0, 3), rng.randrange(1, 9))
            vg = vg.apply(delta)
            recomputed = edge_set_hash(vg.graph.edge_array())
            assert vg.edge_hash == recomputed, f"epoch {vg.epoch}"
            expected = stamp_epoch_digest(
                vg.lineage, vg.epoch, edge_set_token(vg.num_vertices, recomputed)
            )
            assert vg.digest == expected
            if epoch == 25:
                assert vg.num_edges == 0 and recomputed == (0, 0)
        assert vg.num_vertices > 30
        assert vg.graph == Graph.from_edges(sorted(present), num_vertices=vg.num_vertices)

    def test_pickled_snapshot_strips_epoch_digest(self, triangle):
        nxt = VersionedGraph(triangle).apply(GraphDelta.from_edges(insert=[(0, 3)]))
        clone = pickle.loads(pickle.dumps(nxt.graph))
        assert clone == nxt.graph
        assert clone.content_digest() != nxt.graph.content_digest()

    def test_delta_emptying_the_graph(self, triangle):
        vg = VersionedGraph(triangle)
        nxt = vg.apply(GraphDelta.from_edges(delete=[(0, 1), (1, 2), (0, 2)]))
        assert nxt.graph.num_edges == 0 and nxt.graph.num_vertices == 3


@pytest.mark.parametrize(
    "name,graph",
    [(n, g) for n, g in small_graph_zoo()],
    ids=[n for n, _ in small_graph_zoo()],
)
def test_churn_equivalence_over_zoo(name, graph):
    """Random insert/delete streams: maintained coreness == full peel, every epoch."""
    rng = random.Random(hash(name) & 0xFFFF)
    vg = VersionedGraph(graph)
    core = core_decomposition(graph).coreness if graph.num_vertices else np.empty(0, dtype=np.int64)
    present = edge_set(graph)
    n = max(graph.num_vertices, 6)
    for _ in range(25):
        delta = random_delta(rng, present, n, rng.randrange(1, 4))
        if delta.is_empty:
            continue
        nxt = vg.apply(delta)
        result = incremental_core_numbers(
            vg.graph, core, nxt.applied, new_graph=nxt.graph
        )
        expected = (
            core_decomposition(nxt.graph).coreness
            if nxt.graph.num_vertices else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(result.coreness, expected)
        assert nxt.graph == Graph.from_edges(sorted(present), num_vertices=nxt.graph.num_vertices)
        vg, core = nxt, result.coreness


@pytest.mark.parametrize("backend", ["numpy", "native"])
def test_churn_equivalence_across_backends(backend):
    """The rebuild fallback and the incremental path agree on every backend."""
    graph = gnm_random_graph(80, 200, seed=11)
    rng = random.Random(5)
    vg = VersionedGraph(graph)
    core = core_decomposition(graph).coreness
    present = edge_set(graph)
    for step in range(12):
        delta = random_delta(rng, present, 85, rng.randrange(1, 5))
        if delta.is_empty:
            continue
        nxt = vg.apply(delta)
        # Alternate a tiny subcore_limit so the rebuild fallback path is
        # exercised on the same stream and must agree too.
        limit = 1 if step % 3 == 2 else None
        result = incremental_core_numbers(
            vg.graph, core, nxt.applied,
            new_graph=nxt.graph, backend=backend, subcore_limit=limit,
        )
        assert np.array_equal(result.coreness, core_decomposition(nxt.graph).coreness)
        # The budget caps insert subcore traversals; deletes are repaired
        # by the kernel's h-index descent, which walks no subcore.
        if limit == 1 and len(nxt.applied.insert):
            assert result.path == "rebuild" and result.reason == "subcore_limit"
        elif limit == 1:
            assert result.path == "batched"
        vg, core = nxt, result.coreness


class TestMaintainPaths:
    def test_no_baseline_rebuilds(self, figure2):
        delta = GraphDelta.from_edges(insert=[(0, 8)])
        result = incremental_core_numbers(figure2, None, delta)
        assert result.path == "rebuild" and result.reason == "no_baseline"
        new = VersionedGraph(figure2).apply(delta).graph
        assert np.array_equal(result.coreness, core_decomposition(new).coreness)
        assert result.changed.tolist() == list(range(12))

    def test_large_delta_rebuilds(self, triangle):
        core = core_decomposition(triangle).coreness
        delta = GraphDelta.from_edges(insert=[(0, 3), (1, 3), (2, 3), (0, 4), (1, 4)])
        result = incremental_core_numbers(triangle, core, delta)
        assert result.path == "rebuild" and result.reason == "large_delta"

    def test_incremental_reports_changed_vertices(self, path5):
        core = core_decomposition(path5).coreness
        delta = GraphDelta.from_edges(insert=[(0, 2)])  # closes a triangle
        result = incremental_core_numbers(path5, core, delta)
        assert result.path == "batched" and result.reason == "ok"
        assert result.changed.tolist() == [0, 1, 2]

    def test_maintain_counter_is_classified(self, path5):
        from repro import obs

        core = core_decomposition(path5).coreness
        total = obs.counter_total("dynamic.maintain")
        inc = obs.counter("dynamic.maintain", path="batched", reason="ok")
        reb = obs.counter("dynamic.maintain", path="rebuild", reason="no_baseline")
        incremental_core_numbers(path5, core, GraphDelta.from_edges(insert=[(0, 2)]))
        incremental_core_numbers(path5, None, GraphDelta.from_edges(insert=[(0, 2)]))
        assert obs.counter_total("dynamic.maintain") == total + 2
        assert obs.counter("dynamic.maintain", path="batched", reason="ok") == inc + 1
        assert (
            obs.counter("dynamic.maintain", path="rebuild", reason="no_baseline")
            == reb + 1
        )

    def test_delta_emptying_graph_maintains_to_zero(self, clique6):
        core = core_decomposition(clique6).coreness
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        delta = GraphDelta.from_edges(delete=edges)
        nxt = VersionedGraph(clique6).apply(delta)
        result = incremental_core_numbers(clique6, core, delta, new_graph=nxt.graph)
        assert np.array_equal(result.coreness, np.zeros(6, dtype=np.int64))

    def test_isolated_growth_extends_with_zeros(self, triangle):
        core = core_decomposition(triangle).coreness
        delta = GraphDelta.from_edges(num_vertices=8)
        result = incremental_core_numbers(triangle, core, delta)
        assert result.coreness.tolist() == [2, 2, 2, 0, 0, 0, 0, 0]

    def test_powerlaw_single_edge_is_incremental(self):
        graph = powerlaw_chung_lu(2000, 8.0, 2.3, seed=3)
        core = core_decomposition(graph).coreness
        present = edge_set(graph)
        u, v = 0, 1
        while (min(u, v), max(u, v)) in present or u == v:
            u, v = (u + 1) % graph.num_vertices, (v + 7) % graph.num_vertices
        delta = GraphDelta.from_edges(insert=[(min(u, v), max(u, v))])
        result = incremental_core_numbers(graph, core, delta)
        assert result.path == "batched"
        new = VersionedGraph(graph).apply(delta).graph
        assert np.array_equal(result.coreness, core_decomposition(new).coreness)
