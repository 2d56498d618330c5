"""Shared primitives used by every kernel backend.

The helpers here are deliberately backend-neutral: the exact
Batagelj–Zaversnik bucket peel (the reference peeling order both backends
fall back to when a degeneracy ordering is requested), the rank-forward
adjacency construction of Latapy's forward triangle algorithm, and the
slice-gather used to batch CSR adjacency ranges.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph, arc_csr

__all__ = ["concat_ranges", "exact_peel", "rank_forward_adjacency"]


def concat_ranges(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Gather several ``values[start:stop]`` slices into one flat array."""
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return values[:0]
    offsets = np.repeat(stops - np.cumsum(lengths), lengths)
    return values[offsets + np.arange(total, dtype=np.int64)]


def exact_peel(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Batagelj–Zaversnik bucket peeling: ``(coreness, peel_order)``.

    The array formulation of [7]: vertices are kept in a single array
    ``vert`` sorted by current degree, with ``bin_start[d]`` marking where
    degree-``d`` vertices begin.  Removing the minimum-degree vertex and
    decrementing a neighbour's degree are both O(1) swap-and-shift
    operations, so the whole decomposition is O(m) time / O(n) extra space.

    This is inherently sequential — the removal sequence (a degeneracy
    ordering) depends on one-at-a-time degree updates — which is why the
    vectorised backend only uses it when the caller asks for ``peel_order``.
    """
    n = graph.num_vertices
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()

    deg = graph.degrees().copy()
    max_deg = int(deg.max()) if n else 0

    # vert: vertices sorted by degree; pos[v]: index of v in vert;
    # bin_start[d]: first index in vert holding a degree-d vertex.
    counts = np.bincount(deg, minlength=max_deg + 1)
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    np.cumsum(counts, out=bin_start[1:])
    bin_start = bin_start[:-1].copy()
    vert = np.argsort(deg, kind="stable").astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n, dtype=np.int64)

    # Plain Python ints in the hot loop: numpy scalar arithmetic is ~5x
    # slower per operation than int arithmetic on small values.
    vert_l = vert.tolist()
    pos_l = pos.tolist()
    deg_l = deg.tolist()
    bin_start_l = bin_start.tolist()
    indptr_l = graph.indptr.tolist()
    indices_l = graph.indices.tolist()
    core_l = deg_l.copy()

    for i in range(n):
        v = vert_l[i]
        dv = deg_l[v]
        core_l[v] = dv
        for j in range(indptr_l[v], indptr_l[v + 1]):
            u = indices_l[j]
            du = deg_l[u]
            if du > dv:
                # Swap u with the first vertex of its bucket, then shrink
                # the bucket from the left: u's degree drops by one.
                first = bin_start_l[du]
                w = vert_l[first]
                if u != w:
                    pu, pw = pos_l[u], first
                    vert_l[first], vert_l[pu] = u, w
                    pos_l[u], pos_l[w] = pw, pu
                bin_start_l[du] = first + 1
                deg_l[u] = du - 1

    coreness = np.asarray(core_l, dtype=np.int64)
    peel_order = np.asarray(vert_l, dtype=np.int64)
    return coreness, peel_order


def rank_forward_adjacency(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build out-adjacency under a degree-based total order.

    Vertices are ordered by ``(degree, id)``; each edge is kept only from the
    lower-ordered endpoint to the higher one, and each out-list is sorted by
    the order value so membership tests are binary searches.  Ordering by
    degree bounds every out-degree by ``O(sqrt(m))`` on the heavy side, the
    classic argument behind the ``O(m^1.5)`` running time.
    """
    n = graph.num_vertices
    degrees = graph.degrees()
    by_order = np.argsort(degrees, kind="stable")
    order_val = np.empty(n, dtype=np.int64)
    order_val[by_order] = np.arange(n, dtype=np.int64)

    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst_val = order_val[graph.indices]
    keep = order_val[src] < dst_val
    out_ptr, out_val, _ = arc_csr(src[keep], dst_val[keep], n)
    return out_ptr, by_order[out_val], order_val
