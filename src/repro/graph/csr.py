"""Immutable compressed-sparse-row (CSR) graph.

:class:`Graph` is the canonical in-memory representation used by every
algorithm in this package.  It stores an undirected, unweighted simple graph
as two ``numpy`` arrays:

``indptr``
    ``int64`` array of length ``n + 1``; the neighbours of vertex ``v`` live
    in ``indices[indptr[v]:indptr[v + 1]]``.
``indices``
    ``int64`` array of length ``2 m``; each undirected edge appears twice,
    once in each endpoint's adjacency slice.  Within a slice the neighbours
    are sorted by ascending vertex id.

The layout matches the paper's storage model (Section III-B): the whole graph
occupies ``O(m)`` space and an adjacency slice is a contiguous array, which is
what makes the position-tag ordering of Algorithm 1 possible.

Vertices are always the integers ``0 .. n - 1``.  Use
:class:`repro.graph.builder.GraphBuilder` to construct a :class:`Graph` from
arbitrary hashable vertex labels, duplicate edges, or self loops; the builder
cleans the input and remembers the label mapping.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from ..errors import GraphFormatError

__all__ = ["Graph", "arc_csr", "arc_positions", "simple_csr", "sorted_arc_keys"]


class Graph:
    """An immutable undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        Row-pointer array of length ``num_vertices + 1``.
    indices:
        Concatenated, per-vertex-sorted adjacency array of length
        ``2 * num_edges``.
    validate:
        When true (the default) cheap structural checks are performed; pass
        ``False`` only for arrays produced by trusted internal code.
    digest:
        Optional pre-computed identity returned by :meth:`content_digest`
        instead of hashing the arrays.  :mod:`repro.dynamic` uses this to
        stamp epoch snapshots with an epoch-qualified digest so two
        content-identical graphs at different epochs never alias in the
        artifact store.  The override is epoch-local state: pickling (and
        therefore every shared-memory worker handoff) strips it, and the
        round-tripped graph recomputes the pure content digest.
    """

    __slots__ = ("_indptr", "_indices", "_degrees", "_digest", "_validated")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, *,
        validate: bool = True, digest: str | None = None,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        # Cached once: every decomposition/ordering/stats pass reads degrees,
        # and int64 diff of indptr is already the canonical dtype.  The
        # validation reuses the same diff.
        if validate:
            degrees = _check_shape(indptr, indices)
        else:
            degrees = np.diff(indptr)
        self._indptr = indptr
        self._indices = indices
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._degrees = degrees
        self._degrees.setflags(write=False)
        # A validated graph has every id in [0, n) and indptr within
        # [0, len(indices)], which content_digest uses to skip a range scan.
        self._validated = validate
        # Content digest is lazy: hashing is O(m) and most graphs are never
        # used as a persistent-cache key.  A caller-provided digest (epoch
        # stamping) short-circuits the hash.
        self._digest: str | None = digest

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], num_vertices: int | None = None) -> "Graph":
        """Build a graph from an iterable of integer edge pairs.

        The edge list may be in any order but must already be *clean*: no
        self loops and no duplicate edges (in either orientation).  Use
        :class:`~repro.graph.builder.GraphBuilder` for dirty input.

        Parameters
        ----------
        edges:
            Iterable of ``(u, v)`` pairs with ``0 <= u, v``.
        num_vertices:
            Total vertex count; defaults to ``max endpoint + 1``.  Vertices
            with no incident edge are allowed (they are isolated).
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if pairs.size == 0:
            n = int(num_vertices or 0)
            return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), validate=False)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphFormatError("edges must be an iterable of (u, v) pairs")
        if pairs.min() < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise GraphFormatError("self loops are not allowed; use GraphBuilder to drop them")
        n = int(pairs.max()) + 1
        if num_vertices is not None:
            if num_vertices < n:
                raise GraphFormatError(f"num_vertices={num_vertices} smaller than max endpoint {n - 1}")
            n = int(num_vertices)
        graph, _, duplicates = simple_csr(pairs[:, 0], pairs[:, 1], n)
        if duplicates:
            raise GraphFormatError("duplicate edges found; use GraphBuilder to deduplicate")
        return graph

    @classmethod
    def from_arrays(
        cls, indptr: np.ndarray, indices: np.ndarray, validate: bool = True,
        *, digest: str | None = None,
    ) -> "Graph":
        """Rebuild a graph from raw CSR arrays.

        The inverse of reading :attr:`indptr` / :attr:`indices`; also the
        reconstruction half of pickling, which passes ``validate=False``
        because the arrays come from an already-validated :class:`Graph`.  ``digest``
        presets :meth:`content_digest` (see the class docstring); pickling
        never forwards it, so reconstructed copies always re-derive their
        identity from the arrays alone.
        """
        return cls(indptr, indices, validate=validate, digest=digest)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "Graph":
        """Return a graph with ``num_vertices`` isolated vertices."""
        return cls(np.zeros(num_vertices + 1, dtype=np.int64), np.empty(0, dtype=np.int64), validate=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        """Read-only row-pointer array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only concatenated adjacency array (length ``2 m``)."""
        return self._indices

    def degree(self, v: int) -> int:
        """Degree of vertex ``v`` in the whole graph."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Read-only int64 array of all vertex degrees (length ``n``).

        Cached at construction; callers that mutate degrees (the peeling
        kernels) must take a ``.copy()``.
        """
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only array of neighbours of ``v``, sorted by vertex id."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` is present (O(log deg))."""
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            return False
        nbrs = self.neighbors(u)
        pos = int(np.searchsorted(nbrs, v))
        return pos < len(nbrs) and int(nbrs[pos]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected edges as ``(u, v)`` with ``u < v``."""
        indptr, indices = self._indptr, self._indices
        for u in range(self.num_vertices):
            for v in indices[indptr[u]:indptr[u + 1]]:
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees())
        mask = src < self._indices
        return np.column_stack([src[mask], self._indices[mask]])

    def content_digest(self) -> str:
        """Hex SHA-256 over the CSR arrays — a stable content identity.

        Unlike :meth:`__hash__` this survives across processes and python
        runs, which is what keys the persistent artifact store
        (:mod:`repro.index.store`).  Cached after the first call.  Epoch
        snapshots produced by :mod:`repro.dynamic` preset this with an
        epoch-qualified digest (``digest=`` construction parameter), so
        store bundles of different epochs never alias even when their CSR
        content happens to coincide.

        The hashed message is a preamble, a six-byte width tag followed by
        ``n`` and ``len(indices)`` as int64, then ``indptr`` and
        ``indices``, little-endian, at the widths the tag names:

        * ``b"csr:u2"``: ``indptr`` as int32, ``indices`` as uint16, when
          ``n <= 2**16`` (every id fits in 16 bits) and int32 fits too;
        * ``b"csr:i4"``: both as int32, when ``n``, ``len(indices)`` and
          every value lie in ``[0, 2**31)``;
        * ``b"csr:i8"``: both as int64 otherwise.

        A validated graph has its ranges from its checks (ids in
        ``[0, n)``, row pointers in ``[0, len(indices)]``); any other graph
        is range-scanned here.  The encoding is injective over every
        :class:`Graph`, ``validate=False`` ones included: the tags have one
        length, so the tag fixes both widths, the two lengths fix where
        each array ends, and a value outside a width's range forces a wider
        tag, so it can never alias a narrowed value.  The arrays are hashed
        in place; only narrowing makes a copy, at the narrow width.
        """
        if self._digest is None:
            indptr, indices = self._indptr, self._indices
            narrow = self.num_vertices < 2**31 and len(indices) < 2**31 and (
                self._validated or (_fits(indptr, 2**31) and _fits(indices, 2**31))
            )
            if narrow and self.num_vertices <= 2**16 and (
                self._validated or _fits(indices, 2**16)
            ):
                tag, widths = b"csr:u2", ("<i4", "<u2")
            elif narrow:
                tag, widths = b"csr:i4", ("<i4", "<i4")
            else:
                tag, widths = b"csr:i8", ("<i8", "<i8")
            h = hashlib.sha256(tag)
            h.update(np.array([self.num_vertices, len(indices)], dtype="<i8"))
            h.update(indptr.astype(widths[0], copy=False))
            h.update(indices.astype(widths[1], copy=False))
            self._digest = h.hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Serialize only the defining CSR arrays: the degree cache and the
        # digest — which may be an epoch-stamped override from
        # repro.dynamic, i.e. per-epoch state — are recomputed on load, so
        # a pickled graph (and every per-task handoff to a worker process)
        # carries exactly the O(m) payload and can never smuggle stale
        # epoch identity into another process.
        return (Graph.from_arrays, (self._indptr, self._indices, False))

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def __contains__(self, v: object) -> bool:
        return isinstance(v, (int, np.integer)) and 0 <= int(v) < self.num_vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # immutable, so hashable by content digest
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


def sorted_arc_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The arc keys ``src * n + dst``, sorted: arcs ordered by ``(src, dst)``.

    Every whole-graph arc sort in the package is this one in-place sort.
    For ids in ``[0, n)`` the int64 key is collision-free while
    ``n * n < 2**63``, i.e. ``n < 3.03e9``: the bound the ``owner * n +
    value`` keys of :mod:`repro.kernels.numpy_backend` already rely on.
    """
    keys = src * np.int64(n)
    keys += dst
    keys.sort()
    return keys


def arc_csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the arcs ``src -> dst`` into CSR rows, each sorted by ``dst``.

    Returns ``(indptr, indices, keys)``; adjacent equal ``keys`` (the
    :func:`sorted_arc_keys` the rows were cut from) are duplicate arcs.
    """
    keys = sorted_arc_keys(src, dst, n)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = keys - np.repeat(np.arange(n, dtype=np.int64) * n, counts)
    return indptr, indices, keys


def simple_csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[Graph, int, int]:
    """The simple graph on ids ``[0, n)`` of the raw edges ``src[i] -- dst[i]``.

    Self loops are dropped, and so is every repeat of an edge in either
    orientation.  Returns ``(graph, self_loops_dropped,
    duplicates_dropped)``.  One :func:`sorted_arc_keys` sort over both
    orientations of the edges both groups the CSR rows and brings repeats
    together; each repeated edge repeats two arcs.
    """
    loops = src == dst
    num_loops = int(np.count_nonzero(loops))
    if num_loops:
        src, dst = src[~loops], dst[~loops]
    keys = sorted_arc_keys(np.concatenate([src, dst]), np.concatenate([dst, src]), n)
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    num_arcs = len(keys)
    keys = keys[fresh]
    heads = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    indices = keys - heads * n
    return Graph(indptr, indices, validate=False), num_loops, (num_arcs - len(keys)) // 2


def arc_positions(
    indptr: np.ndarray, indices: np.ndarray, heads: np.ndarray, tails: np.ndarray
) -> np.ndarray:
    """Where arc ``heads[i] -> tails[i]`` sits, or would sit, in a CSR.

    One synchronised binary search across all the (ascending) rows at
    once: entry ``i`` is the lower bound of ``tails[i]`` in row
    ``heads[i]``, an absolute position into ``indices``.  It is the arc's
    own position when the arc exists, and its insertion point otherwise
    (``indptr[heads[i] + 1]`` when every neighbour is smaller).  Costs
    ``O(k log max_degree)`` for ``k`` queries.
    """
    lo = indptr[heads].astype(np.int64)
    hi = indptr[heads + 1].astype(np.int64)
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        go = np.zeros(len(lo), dtype=bool)
        go[open_] = indices[mid[open_]] < tails[open_]
        lo = np.where(open_ & go, mid + 1, lo)
        hi = np.where(open_ & ~go, mid, hi)


def _check_shape(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Cheap structural checks run on every public construction.

    Returns the degrees, ``np.diff(indptr)``, which the monotonicity check
    computes anyway.  The id range is one reduction: viewed as uint64 a
    negative id is at least ``2**63``, so ``max < n`` rejects it too.
    """
    if indptr.ndim != 1 or len(indptr) < 1:
        raise GraphFormatError("indptr must be a 1-D array of length >= 1")
    if indptr[0] != 0 or indptr[-1] != len(indices):
        raise GraphFormatError("indptr must start at 0 and end at len(indices)")
    degrees = np.diff(indptr)
    if len(degrees) and degrees.min() < 0:
        raise GraphFormatError("indptr must be non-decreasing")
    if len(indices) and indices.view(np.uint64).max() >= len(indptr) - 1:
        raise GraphFormatError("adjacency index out of range")
    return degrees


def _fits(arr: np.ndarray, bound: int) -> bool:
    """Whether every value of an int64 array lies in ``[0, bound)``.

    Viewed as uint64 a negative value is at least ``2**63``, so one
    reduction bounds both ends.
    """
    return not len(arr) or int(arr.view(np.uint64).max()) < bound
