"""Weighted (s-core) decomposition — paper Section VII's weighted extension.

On a weighted graph, the *strength* of a vertex is the sum of its incident
edge weights, and the s-core (Eidsaa & Almaas, Phys. Rev. E 2013) is the
maximal subgraph in which every vertex has strength at least ``s``.
Peeling by minimum remaining strength yields, per vertex, the largest
``s`` whose s-core contains it — the weighted analogue of coreness.

The paper remarks (Section VII) that its best-k machinery "may shed light
on finding the best k-core on weighted graphs if we apply the weighted
community scores"; the engine's ``weighted`` family
(:mod:`repro.weighted.family`) realises exactly that, and this module
supplies the decomposition it needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import Graph
from ..kernels import KernelBackend, get_backend

__all__ = ["WeightedDecomposition", "s_core_decomposition", "arc_weights"]


def arc_weights(graph: Graph, edge_weights: np.ndarray) -> np.ndarray:
    """Expand per-edge weights to per-arc weights aligned with ``graph.indices``.

    ``edge_weights[i]`` must correspond to ``graph.edge_array()[i]`` (the
    canonical ``u < v`` ordering).  Both directions of an edge get its
    weight.
    """
    if len(edge_weights) != graph.num_edges:
        raise ValueError(
            f"expected {graph.num_edges} edge weights, got {len(edge_weights)}"
        )
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees())
    dst = graph.indices
    forward = src < dst
    # Forward arcs (u -> v, u < v) in CSR order are edge_array()'s rows in
    # order.  The backward arc v -> u sits in row v at u's rank among v's
    # lower neighbours, so the backward arcs are the edges ordered by
    # (v, u): a stable sort of the forward destinations.
    weights = np.asarray(edge_weights, dtype=np.float64)
    out = np.empty(len(dst), dtype=np.float64)
    out[forward] = weights
    out[~forward] = weights[np.argsort(dst[forward], kind="stable")]
    return out


@dataclass(frozen=True)
class WeightedDecomposition:
    """s-core levels of every vertex.

    ``level[v]`` is the largest ``s`` such that ``v`` belongs to the
    s-core; levels are monotone under the peeling order, so
    ``{v : level[v] >= s}`` is exactly the s-core's vertex set for any
    threshold ``s``.
    """

    graph: Graph
    #: Per-edge weights in :meth:`Graph.edge_array` order.
    edge_weights: np.ndarray
    #: ``level[v]``: the vertex's s-core level (weighted coreness).
    level: np.ndarray
    #: Peeling order (ascending level).
    peel_order: np.ndarray
    #: :func:`arc_weights` of ``edge_weights``; ``None`` until first use.
    _arc_weights: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def arc_weights(self) -> np.ndarray:
        """Per-arc weights aligned with ``graph.indices``, expanded once.

        The peel passes its expansion in; a decomposition rebuilt from
        stored arrays expands on first use.
        """
        if self._arc_weights is None:
            object.__setattr__(self, "_arc_weights", arc_weights(self.graph, self.edge_weights))
        return self._arc_weights

    @property
    def smax(self) -> float:
        """The deepest s-core level present."""
        return float(self.level.max()) if len(self.level) else 0.0

    def s_core_vertices(self, s: float) -> np.ndarray:
        """Vertex set of the s-core for threshold ``s``."""
        return np.flatnonzero(self.level >= s)

    def integer_levels(self, num_levels: int = 64) -> np.ndarray:
        """Quantise the real-valued levels into ``num_levels`` integer bins.

        Bin boundaries are equally spaced over ``[0, smax]``; the integer
        level of ``v`` is the highest boundary not exceeding ``level[v]``.
        This is what plugs the weighted hierarchy into the generalised
        best-k machinery (which indexes level sets by integers).
        """
        if num_levels < 1:
            raise ValueError("num_levels must be positive")
        smax = self.smax
        if smax <= 0:
            return np.zeros(len(self.level), dtype=np.int64)
        scaled = np.floor(self.level / smax * num_levels).astype(np.int64)
        return np.minimum(scaled, num_levels)

    def threshold_of_integer_level(self, k: int, num_levels: int = 64) -> float:
        """The strength threshold corresponding to integer level ``k``."""
        return self.smax * k / num_levels


def s_core_decomposition(
    graph: Graph,
    edge_weights: np.ndarray,
    *,
    backend: str | KernelBackend | None = None,
) -> WeightedDecomposition:
    """Peel by minimum remaining strength to get every vertex's s-core level.

    O(m log n) with a lazy min-heap (weights are real-valued, so the O(m)
    bucket trick of the unweighted case does not apply).  The initial
    strength accumulation runs on the selected kernel backend.  Raises
    ``ValueError`` unless every weight is finite and non-negative.
    """
    edge_weights = np.asarray(edge_weights, dtype=np.float64)
    if not np.isfinite(edge_weights).all():
        raise ValueError("edge weights must be finite (no NaN or inf)")
    if (edge_weights < 0).any():
        raise ValueError("edge weights must be non-negative")
    n = graph.num_vertices
    weights = arc_weights(graph, edge_weights) if len(edge_weights) else np.empty(0)

    strength = get_backend(backend).vertex_strengths(graph, weights)

    # The heap loop runs over Python lists: indexing numpy scalars per arc
    # costs more than the float arithmetic it feeds.  Python floats are
    # float64, so levels and the peel order match array arithmetic bit for
    # bit.
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    arc_w = weights.tolist()
    strength_l = strength.tolist()
    alive = [True] * n
    level = [0.0] * n
    order = []
    heap = [(strength_l[v], v) for v in range(n)]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    current = 0.0
    while heap:
        s, v = heappop(heap)
        if not alive[v] or s != strength_l[v]:
            continue
        current = max(current, s)
        level[v] = current
        order.append(v)
        alive[v] = False
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if alive[u]:
                strength_l[u] -= arc_w[j]
                heappush(heap, (strength_l[u], u))
    return WeightedDecomposition(
        graph,
        edge_weights,
        np.array(level, dtype=np.float64),
        np.array(order, dtype=np.int64),
        weights,
    )
