"""Shared primitives used by every kernel backend.

The helpers here are deliberately backend-neutral: the rank-forward
adjacency construction of Latapy's forward triangle algorithm, and the
slice-gather used to batch CSR adjacency ranges.  The exact bucket peel
is a loop kernel (:mod:`repro.kernels._native_impl`).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph, arc_csr

__all__ = ["concat_ranges", "rank_forward_adjacency"]


def concat_ranges(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Gather several ``values[start:stop]`` slices into one flat array."""
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return values[:0]
    offsets = np.repeat(stops - np.cumsum(lengths), lengths)
    return values[offsets + np.arange(total, dtype=np.int64)]


def rank_forward_adjacency(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build out-adjacency under a degree-based total order.

    Vertices are ordered by ``(degree, id)``; each edge is kept only from the
    lower-ordered endpoint to the higher one, and each out-list is sorted by
    the order value, so the entries of a list that outrank any one of its
    members form a suffix (binary searches and tail bounds rely on it).
    Ordering by degree bounds every out-degree by ``O(sqrt(m))`` on the
    heavy side, the classic argument behind the ``O(m^1.5)`` running time.
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
