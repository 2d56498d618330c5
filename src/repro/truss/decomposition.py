"""Truss decomposition — substrate for the paper's Section VI-B extension.

The k-truss of a graph is the maximal subgraph in which every edge closes at
least ``k - 2`` triangles.  *Truss decomposition* assigns every edge its
truss number ``t(e)`` — the largest k whose k-truss contains it — by the
support-peeling algorithm of Wang & Cheng (PVLDB 2012), run in the
whole-frontier form of Xiang's repeated pruning (arXiv:1401.1771):

1. compute each edge's *support* (number of triangles through it);
2. for k = 0, 1, ...: remove every remaining edge with support <= k in
   one pass, and repeat until none is left; each removed edge gets truss
   number k + 2;
3. removing an edge kills the triangles it closed, and each dead triangle
   decrements the support of its surviving edges once.

We also derive each vertex's *truss level* ``max(t(e) for incident e)`` —
the quantity that plays the role coreness plays in core decomposition when
the best-k machinery is generalised to trusses (see
:mod:`repro.engine.levels` and :mod:`repro.truss.family`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..kernels import KernelBackend, get_backend

__all__ = ["TrussDecomposition", "truss_decomposition"]


@dataclass(frozen=True)
class TrussDecomposition:
    """Edge truss numbers plus derived per-vertex levels."""

    graph: Graph
    #: ``(m, 2)`` array of edges (u < v), in :meth:`Graph.edge_array` order.
    edges: np.ndarray
    #: ``truss[i]`` = truss number of ``edges[i]`` (>= 2 for any edge).
    truss: np.ndarray
    #: ``vertex_level[v]`` = max truss number over v's incident edges
    #: (0 for isolated vertices).
    vertex_level: np.ndarray

    @property
    def tmax(self) -> int:
        """The largest k with a non-empty k-truss."""
        return int(self.truss.max()) if len(self.truss) else 0

    def ktruss_edges(self, k: int) -> np.ndarray:
        """Edges of the k-truss set (truss number >= k)."""
        return self.edges[self.truss >= k]

    def ktruss_vertices(self, k: int) -> np.ndarray:
        """Vertices incident to at least one edge of truss >= k."""
        return np.flatnonzero(self.vertex_level >= k)

    def __repr__(self) -> str:
        return f"TrussDecomposition(m={len(self.truss)}, tmax={self.tmax})"


def truss_decomposition(
    graph: Graph, *, backend: str | KernelBackend | None = None
) -> TrussDecomposition:
    """Compute the truss number of every edge by support peeling.

    Runs on the selected kernel backend's :meth:`~repro.kernels.base.
    KernelBackend.truss_peel`.  The default ``numpy`` backend lists every
    triangle once as three edge ids, takes supports as a count of those
    ids, and peels in whole-frontier passes: every alive edge with support
    <= k leaves at once, each alive triangle it closed dies exactly once,
    and the surviving edges of the dead triangles lose one support each in
    a single counting pass; k rises only when the frontier empties.  The
    ``python`` backend keeps the one-edge-at-a-time bucket peel as the
    reference.  Truss numbers are unique, so both agree exactly.  O(m^1.5)
    for the triangle listing, which dominates.
    """
    edges = graph.edge_array()
    truss = get_backend(backend).truss_peel(graph, edges)
    vertex_level = np.zeros(graph.num_vertices, dtype=np.int64)
    np.maximum.at(vertex_level, edges[:, 0], truss)
    np.maximum.at(vertex_level, edges[:, 1], truss)
    return TrussDecomposition(graph, edges, truss, vertex_level)
