"""Unit tests for the CSR graph representation."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import Graph, validate_graph
from conftest import reference_csr


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_edges_isolated_tail_vertices(self):
        g = Graph.from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_from_edges_rejects_small_num_vertices(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 5)], num_vertices=3)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(1, 1)])

    def test_from_edges_rejects_duplicates(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 1), (1, 0)])

    def test_from_edges_rejects_negative(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, -1)])

    def test_from_edges_rejects_bad_shape(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edges([(0, 1, 2)])  # type: ignore[list-item]

    def test_empty(self):
        g = Graph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_empty_zero(self):
        g = Graph.empty(0)
        assert g.num_vertices == 0

    def test_from_edges_empty_iterable(self):
        g = Graph.from_edges([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_constructed_graph_validates(self, figure2):
        validate_graph(figure2)

    def test_bad_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0, 2, 1]), np.array([1, 0]))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0, 1, 2]), np.array([5, 0]))

    @pytest.mark.parametrize("bad", [-1, 2, 2**32, -(2**63)])
    def test_negative_and_too_large_ids_rejected(self, bad):
        # The range check is one uint64 reduction: negatives wrap above n.
        with pytest.raises(GraphFormatError, match="adjacency index out of range"):
            Graph(np.array([0, 1, 2]), np.array([1, bad]))

    def test_degrees_are_the_validated_diff(self, figure2):
        g = Graph(figure2.indptr, figure2.indices)
        assert np.array_equal(g.degrees(), np.diff(figure2.indptr))
        assert not g.degrees().flags.writeable


def shuffled_edges(n: int, m: int, seed: int) -> np.ndarray:
    """``m`` distinct edges on ``n`` vertices, shuffled and randomly oriented."""
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(m)}
    edges = rng.permutation(np.array(sorted(pairs), dtype=np.int64))
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges


#: Every input form ``from_edges`` accepts, built from one ``(k, 2)`` array.
INPUT_FORMS = {
    "list": lambda a: [tuple(map(int, e)) for e in a],
    "generator": lambda a: ((int(u), int(v)) for u, v in a),
    "ndarray": lambda a: a,
    "non-contiguous-ndarray": lambda a: np.asfortranarray(a),
}


@pytest.mark.parametrize("form", INPUT_FORMS)
class TestFromEdgesAgainstReference:
    """``from_edges`` equals a sorted-set CSR for every input form."""

    def check(self, form, edges, num_vertices=None):
        g = Graph.from_edges(INPUT_FORMS[form](edges), num_vertices=num_vertices)
        n = num_vertices if num_vertices is not None else int(edges.max()) + 1 if len(edges) else 0
        indptr, indices = reference_csr(edges, n)
        assert g.indptr.tolist() == indptr
        assert g.indices.tolist() == indices
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        validate_graph(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled(self, form, seed):
        self.check(form, shuffled_edges(60, 200, seed))

    def test_trailing_isolated_vertices(self, form):
        self.check(form, shuffled_edges(20, 40, 7), num_vertices=26)

    def test_empty(self, form):
        self.check(form, np.empty((0, 2), dtype=np.int64), num_vertices=4)
        self.check(form, np.empty((0, 2), dtype=np.int64))

    def test_both_orientations_rejected(self, form):
        edges = shuffled_edges(30, 50, 1)
        doubled = np.vstack([edges, edges[3:4, ::-1]])
        with pytest.raises(GraphFormatError, match="duplicate"):
            Graph.from_edges(INPUT_FORMS[form](doubled))

    @pytest.mark.parametrize("bad,match", [
        ([(0, 1), (0, 1)], "duplicate"),
        ([(0, 1), (2, 2)], "self loop"),
        ([(0, 1), (-1, 2)], "non-negative"),
    ])
    def test_invalid_rejected(self, form, bad, match):
        with pytest.raises(GraphFormatError, match=match):
            Graph.from_edges(INPUT_FORMS[form](np.array(bad, dtype=np.int64)))

    def test_small_num_vertices_rejected(self, form):
        with pytest.raises(GraphFormatError, match="smaller than max endpoint"):
            Graph.from_edges(INPUT_FORMS[form](shuffled_edges(10, 20, 2)), num_vertices=5)


class TestAccessors:
    def test_degree_and_degrees(self, figure2):
        degrees = figure2.degrees()
        assert degrees.sum() == 2 * figure2.num_edges
        for v in figure2:
            assert figure2.degree(v) == degrees[v]

    def test_neighbors_sorted(self, figure2):
        for v in figure2:
            nbrs = figure2.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_has_edge(self, figure2):
        assert figure2.has_edge(0, 1)
        assert figure2.has_edge(1, 0)
        assert not figure2.has_edge(0, 11)
        assert not figure2.has_edge(0, 0)

    def test_has_edge_out_of_range(self, figure2):
        assert not figure2.has_edge(0, 99)
        assert not figure2.has_edge(-1, 0)

    def test_edges_each_once_u_lt_v(self, figure2):
        edges = list(figure2.edges())
        assert len(edges) == figure2.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_edge_array_matches_edges(self, figure2):
        arr = figure2.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(figure2.edges())

    def test_contains_and_iter(self, figure2):
        assert 0 in figure2
        assert 11 in figure2
        assert 12 not in figure2
        assert "a" not in figure2
        assert list(figure2) == list(range(12))

    def test_len(self, figure2):
        assert len(figure2) == 12

    def test_repr(self, figure2):
        assert "n=12" in repr(figure2)
        assert "m=19" in repr(figure2)


class TestImmutability:
    def test_arrays_read_only(self, figure2):
        with pytest.raises(ValueError):
            figure2.indptr[0] = 7
        with pytest.raises(ValueError):
            figure2.indices[0] = 7

    def test_equality_and_hash(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(1, 2), (0, 1)])
        c = Graph.from_edges([(0, 1), (0, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


class TestPickle:
    """The worker-handoff contract: pickle carries exactly the CSR arrays."""

    def test_round_trip_bit_identity(self, figure2):
        import pickle

        clone = pickle.loads(pickle.dumps(figure2))
        assert clone == figure2
        assert np.array_equal(clone.indptr, figure2.indptr)
        assert np.array_equal(clone.indices, figure2.indices)
        assert clone.indptr.dtype == np.int64 and clone.indices.dtype == np.int64
        # The clone is a full Graph: caches recomputed, still read-only.
        assert np.array_equal(clone.degrees(), figure2.degrees())
        with pytest.raises(ValueError):
            clone.indptr[0] = 7

    def test_reduce_carries_only_csr_arrays(self, figure2):
        figure2.degrees()
        figure2.content_digest()  # populate every derived cache
        fn, payload = figure2.__reduce__()
        assert fn == Graph.from_arrays
        indptr, indices, validate = payload
        assert indptr is figure2.indptr and indices is figure2.indices
        assert validate is False  # trusted arrays skip re-validation on load

    def test_round_trip_preserves_content_digest(self, figure2):
        import pickle

        clone = pickle.loads(pickle.dumps(figure2))
        assert clone.content_digest() == figure2.content_digest()

    def test_empty_graph_round_trip(self):
        import pickle

        for g in (Graph.empty(0), Graph.empty(4)):
            clone = pickle.loads(pickle.dumps(g))
            assert clone == g
            assert clone.num_vertices == g.num_vertices


class TestContentDigest:
    """The store key: SHA-256 over a width-tagged, injective CSR encoding."""

    def test_validated_unvalidated_and_pickled_agree(self, figure2):
        indptr, indices = np.array(figure2.indptr), np.array(figure2.indices)
        validated = Graph(indptr.copy(), indices.copy())
        unvalidated = Graph(indptr.copy(), indices.copy(), validate=False)
        clone = pickle.loads(pickle.dumps(validated))
        digests = {g.content_digest() for g in (validated, unvalidated, clone)}
        assert len(digests) == 1

    def test_narrow_encoding_is_pinned(self, figure2):
        # int32 arrays behind the "csr:i4" tag and the two int64 lengths.
        h = hashlib.sha256(b"csr:i4")
        h.update(np.array([figure2.num_vertices, len(figure2.indices)], "<i8").tobytes())
        h.update(figure2.indptr.astype("<i4").tobytes())
        h.update(figure2.indices.astype("<i4").tobytes())
        assert figure2.content_digest() == h.hexdigest()

    def test_wide_values_never_alias_narrowed_ones(self):
        indptr = np.array([0, 1, 2])
        low = Graph(indptr, np.array([1, 0]), validate=False)
        high = Graph(indptr, np.array([1 + 2**32, 0]), validate=False)
        negative = Graph(indptr, np.array([1 - 2**32, 0]), validate=False)
        assert len({g.content_digest() for g in (low, high, negative)}) == 3
        # The out-of-range graph is hashed at int64 width.
        h = hashlib.sha256(b"csr:i8")
        h.update(np.array([2, 2], "<i8").tobytes())
        h.update(indptr.astype("<i8").tobytes())
        h.update(np.array([1 + 2**32, 0], "<i8").tobytes())
        assert high.content_digest() == h.hexdigest()

    def test_wide_row_pointers_never_alias(self):
        indices = np.array([1, 0])
        low = Graph(np.array([0, 1, 2]), indices, validate=False)
        high = Graph(np.array([0, 1 + 2**32, 2]), indices, validate=False)
        assert low.content_digest() != high.content_digest()

    def test_isolated_vertex_changes_the_digest(self, figure2):
        indptr = np.append(figure2.indptr, figure2.indptr[-1])
        grown = Graph(indptr, figure2.indices)
        assert grown.num_vertices == figure2.num_vertices + 1
        assert grown.content_digest() != figure2.content_digest()

    def test_array_boundary_is_part_of_the_encoding(self):
        # Same bytes concatenated, split differently between the arrays.
        a = Graph(np.array([0, 0]), np.array([0]), validate=False)
        b = Graph(np.array([0]), np.array([0, 0]), validate=False)
        assert a.content_digest() != b.content_digest()
