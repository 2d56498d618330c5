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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.levels import _rank_order_arcs
from ..graph.csr import Graph
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
    graph: Graph, decomposition: CoreDecomposition | None = None
) -> OrderedGraph:
    """Run Algorithm 1: rank-order every adjacency list and tag positions.

    Parameters
    ----------
    graph:
        The input graph.
    decomposition:
        A precomputed :func:`core_decomposition` result; computed on the fly
        when omitted.

    Complexity: ``O(m)`` space; the paper's two counting-sort passes are
    ``O(m)`` time, the one arc-key sort here ``O(m log m)``.
    """
    if decomposition is None:
        decomposition = core_decomposition(graph)
    return OrderedGraph(
        graph=graph,
        decomposition=decomposition,
        **_rank_order_arcs(
            graph, decomposition.coreness, decomposition.order, decomposition.shell_start
        ),
    )
