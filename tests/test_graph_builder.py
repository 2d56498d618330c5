"""Unit tests for GraphBuilder (input cleaning and label interning)."""

import numpy as np
import pytest

from repro.graph import GraphBuilder, validate_graph
from conftest import reference_csr


class TestCleaning:
    def test_deduplicates_both_orientations(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        b.add_edge(1, 0)
        b.add_edge(0, 1)
        g = b.build()
        assert g.num_edges == 1
        assert b.num_duplicates_dropped == 2

    def test_drops_self_loops(self):
        b = GraphBuilder()
        b.add_edge(0, 0)
        b.add_edge(0, 1)
        g = b.build()
        assert g.num_edges == 1
        assert b.num_self_loops_dropped == 1

    def test_result_validates(self):
        b = GraphBuilder()
        b.add_edges([(0, 1), (1, 0), (2, 2), (1, 2), (0, 2)])
        validate_graph(b.build())

    def test_empty_build(self):
        b = GraphBuilder()
        g = b.build()
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_vertices_without_edges(self):
        b = GraphBuilder()
        b.add_vertex("lonely")
        g = b.build()
        assert g.num_vertices == 1
        assert g.num_edges == 0


class TestLabels:
    def test_string_labels_interned_in_order(self):
        b = GraphBuilder()
        b.add_edge("alice", "bob")
        b.add_edge("bob", "carol")
        assert b.labels == ["alice", "bob", "carol"]
        assert b.label_of(0) == "alice"
        assert b.vertex_id("carol") == 2

    def test_mixed_hashable_labels(self):
        b = GraphBuilder()
        b.add_edge(("tuple", 1), "string")
        g = b.build()
        assert g.num_vertices == 2

    def test_num_vertices_tracks_interning(self):
        b = GraphBuilder()
        assert b.num_vertices == 0
        b.add_vertex("x")
        b.add_edge("y", "z")
        assert b.num_vertices == 3


class TestRebuild:
    def test_incremental_builds(self):
        b = GraphBuilder()
        b.add_edge(0, 1)
        g1 = b.build()
        b.add_edge(1, 2)
        g2 = b.build()
        assert g1.num_edges == 1
        assert g2.num_edges == 2
        assert g2.num_vertices == 3

    def test_counters_reset_per_build(self):
        b = GraphBuilder()
        b.add_edge(0, 0)
        b.build()
        assert b.num_self_loops_dropped == 1
        b2 = GraphBuilder()
        b2.add_edge(0, 1)
        b2.build()
        assert b2.num_self_loops_dropped == 0


class TestAgainstReference:
    """``build`` equals a sorted-set CSR of the cleaned input, with its counts."""

    @staticmethod
    def dirty_edges(n: int, k: int, seed: int) -> list[tuple[int, int]]:
        """Shuffled edges with repeats in both orientations and self loops."""
        rng = np.random.default_rng(seed)
        return [tuple(map(int, e)) for e in rng.integers(0, n, size=(k, 2))]

    def check(self, edges, isolated=()):
        b = GraphBuilder()
        b.add_edges(edges)
        for label in isolated:
            b.add_vertex(label)
        g = b.build()
        loops = sum(1 for u, v in edges if u == v)
        dense = [(b.vertex_id(u), b.vertex_id(v)) for u, v in edges if u != v]
        clean = {(min(u, v), max(u, v)) for u, v in dense}
        indptr, indices = reference_csr(sorted(clean), b.num_vertices)
        assert g.indptr.tolist() == indptr
        assert g.indices.tolist() == indices
        assert b.num_self_loops_dropped == loops
        assert b.num_duplicates_dropped == len(edges) - loops - len(clean)
        validate_graph(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_dirty_input(self, seed):
        self.check(self.dirty_edges(30, 150, seed))

    def test_both_orientations(self):
        self.check([(3, 1), (1, 3), (0, 2), (2, 0), (1, 3), (2, 1)])

    def test_trailing_isolated_vertices(self):
        self.check(self.dirty_edges(10, 25, 9), isolated=["x", "y", 99])

    def test_only_self_loops(self):
        self.check([(0, 0), (1, 1), (1, 1)])

    def test_generator_and_ndarray_input(self):
        edges = self.dirty_edges(12, 40, 5)
        listed = GraphBuilder()
        listed.add_edges(edges)
        expected = listed.build()
        for form in ((e for e in edges), np.array(edges, dtype=np.int64)):
            b = GraphBuilder()
            b.add_edges(form)
            assert b.build() == expected
            assert (b.num_self_loops_dropped, b.num_duplicates_dropped) == (
                listed.num_self_loops_dropped, listed.num_duplicates_dropped)
