"""Vertex ordering with position tags — paper Section III-B, Algorithm 1.

Given a core decomposition, every adjacency list is re-ordered by ascending
*vertex rank*, where ``rank(v) > rank(u)`` iff ``c(v) > c(u)``, or
``c(v) == c(u)`` and ``id(v) > id(u)`` (Definition 5).  Three position tags
are recorded per vertex ``v`` (Table II):

``same``
    index of the first neighbour ``u`` with ``c(u) >= c(v)``;
``plus``
    index of the first neighbour ``u`` with ``c(u) > c(v)``;
``high``
    index of the first neighbour ``u`` with ``rank(u) > rank(v)``.

With the tags, every ``|N(v, .)|`` query — the count of neighbours with
smaller / equal / greater coreness, or greater rank — is O(1), and the
corresponding neighbour slice is a contiguous array view.  This is the
"index building" stage of the paper's Optimal algorithms; it costs ``O(m)``
time and ``O(m)`` space.

The paper realises the ordering with two passes of counting sort over the
edge set (bins indexed by coreness).  We express the identical permutation
with one in-place sort of the int64 arc keys ``v * n + rank(u)``, which
groups arcs by row and each row by neighbour rank.  Coreness is monotone in
rank, so each tag is one ``searchsorted`` of a per-row threshold key into
the sorted keys.  The builder is the one behind the generalised
:func:`repro.engine.levels.level_ordering`; :func:`order_vertices` passes
it the decomposition's vertex order, so nothing is sorted twice.

After a graph delta the ordering can be *patched* from the previous
snapshot's (:func:`order_vertices` with ``base=``).  Rank is the
(coreness, id) total order of Definition 5, so the relative order of two
neighbours ``u, w`` of ``v`` depends only on ``c(u)``, ``c(w)`` and the
ids, and the tags of ``v`` only on ``c(v)`` and its neighbours'
coreness.  A row can therefore differ from its old self only if the
delta edited it, or ``v`` or one of its neighbours changed coreness
(:func:`_affected_rows`); every other row keeps its neighbour ids in the
same order and its tags, and only ``rank`` has to move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.levels import _rank_order_arcs
from ..graph.csr import Graph
from ..kernels.common import concat_ranges
from .decomposition import CoreDecomposition, core_decomposition

__all__ = ["OrderedGraph", "order_vertices"]


@dataclass(frozen=True)
class OrderedGraph:
    """A graph whose adjacency lists are rank-ordered, with position tags.

    All arrays are read-only.  ``indptr`` is shared with the source graph
    (the re-ordering permutes within each slice only).
    """

    graph: Graph
    decomposition: CoreDecomposition
    #: ``rank[v]``: position of ``v`` in the (coreness, id) total order.
    rank: np.ndarray
    #: Row pointers (same as ``graph.indptr``).
    indptr: np.ndarray
    #: Adjacency, each slice sorted by ascending neighbour rank.
    indices: np.ndarray
    #: Per-vertex tag: offset of first neighbour with ``c(u) >= c(v)``.
    same: np.ndarray
    #: Per-vertex tag: offset of first neighbour with ``c(u) > c(v)``.
    plus: np.ndarray
    #: Per-vertex tag: offset of first neighbour with ``rank(u) > rank(v)``.
    high: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.rank, self.indptr, self.indices, self.same, self.plus, self.high):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # O(1) count queries (Table II)
    # ------------------------------------------------------------------
    def degree(self, v: int) -> int:
        """``|N(v)|``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def n_lt(self, v: int) -> int:
        """``|N(v, <)|`` — neighbours with strictly smaller coreness."""
        return int(self.same[v])

    def n_eq(self, v: int) -> int:
        """``|N(v, =)|`` — neighbours with equal coreness."""
        return int(self.plus[v] - self.same[v])

    def n_gt(self, v: int) -> int:
        """``|N(v, >)|`` — neighbours with strictly greater coreness."""
        return int(self.indptr[v + 1] - self.indptr[v] - self.plus[v])

    def n_ge(self, v: int) -> int:
        """``|N(v, >=)|`` — degree of ``v`` inside its own k-core set."""
        return int(self.indptr[v + 1] - self.indptr[v] - self.same[v])

    def n_gt_rank(self, v: int) -> int:
        """``|N(v, >r)|`` — neighbours with strictly greater rank."""
        return int(self.indptr[v + 1] - self.indptr[v] - self.high[v])

    # ------------------------------------------------------------------
    # Contiguous neighbour slices
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """All neighbours of ``v``, ordered by ascending rank."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def nbrs_lt(self, v: int) -> np.ndarray:
        """``N(v, <)``."""
        start = self.indptr[v]
        return self.indices[start:start + self.same[v]]

    def nbrs_eq(self, v: int) -> np.ndarray:
        """``N(v, =)``."""
        start = self.indptr[v]
        return self.indices[start + self.same[v]:start + self.plus[v]]

    def nbrs_gt(self, v: int) -> np.ndarray:
        """``N(v, >)``."""
        return self.indices[self.indptr[v] + self.plus[v]:self.indptr[v + 1]]

    def nbrs_ge(self, v: int) -> np.ndarray:
        """``N(v, >=)``."""
        return self.indices[self.indptr[v] + self.same[v]:self.indptr[v + 1]]

    def nbrs_gt_rank(self, v: int) -> np.ndarray:
        """``N(v, >r)`` — higher-rank neighbours, ascending rank."""
        return self.indices[self.indptr[v] + self.high[v]:self.indptr[v + 1]]

    def __repr__(self) -> str:
        g = self.graph
        return f"OrderedGraph(n={g.num_vertices}, m={g.num_edges}, kmax={self.decomposition.kmax})"


def order_vertices(
    graph: Graph,
    decomposition: CoreDecomposition | None = None,
    *,
    base: OrderedGraph | None = None,
    touched: np.ndarray | None = None,
) -> OrderedGraph:
    """Run Algorithm 1: rank-order every adjacency list and tag positions.

    Parameters
    ----------
    graph:
        The input graph.
    decomposition:
        A precomputed :func:`core_decomposition` result; computed on the fly
        when omitted.
    base, touched:
        The ordering of an earlier snapshot of the same vertex ids and the
        vertices whose adjacency changed since (the endpoints of the
        delta).  Together they let only :func:`_affected_rows` be re-sorted;
        the result is identical to the cold build, which also runs
        instead when those rows hold more than a quarter of the arcs
        (:data:`~repro.engine.levels.PATCH_MAX_ARC_SHARE`).

    Complexity: ``O(m)`` space; the paper's two counting-sort passes are
    ``O(m)`` time, the one arc-key sort here ``O(m log m)``.  A patch
    sorts only the affected rows' arcs, plus ``O(n + m)`` array copies.
    """
    if decomposition is None:
        decomposition = core_decomposition(graph)
    rows = None
    if base is not None:
        rows = _affected_rows(
            graph, base.decomposition.coreness, decomposition.coreness, touched
        )
    return OrderedGraph(
        graph=graph,
        decomposition=decomposition,
        **_rank_order_arcs(
            graph, decomposition.coreness, decomposition.order,
            decomposition.shell_start, base=base, rows=rows,
        ),
    )


def _affected_rows(
    graph: Graph, old_coreness: np.ndarray, coreness: np.ndarray, touched: np.ndarray
) -> np.ndarray:
    """Sorted ids of the rows whose Algorithm 1 output can have changed.

    The ``touched`` rows (edited by the delta), the vertices whose
    coreness differs from ``old_coreness`` and their neighbours in
    ``graph``.  A vertex beyond the old vertex count is touched or
    isolated; an isolated row is empty with zero tags, which the patch
    fills in without sorting it.  Costs ``O(n)`` for the coreness
    comparison and the row mask, plus the changed vertices' degrees.
    """
    n_old = len(old_coreness)
    changed = np.flatnonzero(coreness[:n_old] != old_coreness)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[touched] = True
    mask[changed] = True
    mask[concat_ranges(graph.indices, graph.indptr[changed], graph.indptr[changed + 1])] = True
    return np.flatnonzero(mask)
