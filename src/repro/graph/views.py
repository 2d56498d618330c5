"""Subgraph extraction and connectivity utilities on CSR graphs.

These are the graph primitives the baseline algorithms and the applications
lean on: extracting the subgraph induced by a vertex set (a k-core set is
exactly such a set), counting its internal/boundary edges without
materialising it, and finding connected components.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..kernels import KernelBackend, get_backend
from .csr import Graph, arc_csr

__all__ = [
    "induced_subgraph",
    "subgraph_counts",
    "connected_components",
    "component_of",
    "is_connected",
]


def _member_mask(graph: Graph, vertices: Iterable[int]) -> np.ndarray:
    mask = np.zeros(graph.num_vertices, dtype=bool)
    idx = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices, dtype=np.int64)
    if idx.size:
        mask[idx] = True
    return mask


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> tuple[Graph, np.ndarray]:
    """Return the subgraph induced by ``vertices`` plus the id mapping.

    Returns
    -------
    (subgraph, original_ids)
        ``subgraph`` has dense ids ``0..len(vertices)-1``; ``original_ids[i]``
        is the vertex of ``graph`` that became subgraph vertex ``i``.  The
        original ids are sorted ascending, so the mapping is deterministic.
    """
    mask = _member_mask(graph, vertices)
    original_ids = np.flatnonzero(mask)
    new_id = np.full(graph.num_vertices, -1, dtype=np.int64)
    new_id[original_ids] = np.arange(len(original_ids), dtype=np.int64)

    degrees = graph.degrees()
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
    dst = graph.indices
    keep = mask[src] & mask[dst]
    src, dst = new_id[src[keep]], new_id[dst[keep]]
    # Each undirected edge survives in both directions; build CSR directly.
    indptr, indices, _ = arc_csr(src, dst, len(original_ids))
    return Graph(indptr, indices, validate=False), original_ids


def subgraph_counts(graph: Graph, vertices: Iterable[int]) -> tuple[int, int, int]:
    """Count ``(n_S, m_S, b_S)`` of the subgraph induced by ``vertices``.

    ``n_S`` is the vertex count, ``m_S`` the number of internal edges and
    ``b_S`` the number of boundary edges (exactly one endpoint inside).
    Runs in time proportional to the degree sum of ``vertices`` and never
    materialises the subgraph — this is what the paper's baseline uses to
    score one k-core set.
    """
    mask = _member_mask(graph, vertices)
    members = np.flatnonzero(mask)
    n_s = len(members)
    if n_s == 0:
        return 0, 0, 0
    indptr, indices = graph.indptr, graph.indices
    starts, stops = indptr[members], indptr[members + 1]
    total = int((stops - starts).sum())
    if total == 0:
        return n_s, 0, 0
    # Gather all adjacency slices of the members in one flat array.
    flat = np.concatenate([indices[a:b] for a, b in zip(starts, stops)]) if n_s else indices[:0]
    inside = int(mask[flat].sum())
    return n_s, inside // 2, total - inside


def connected_components(
    graph: Graph,
    within: Iterable[int] | None = None,
    *,
    backend: str | KernelBackend | None = None,
) -> tuple[np.ndarray, int]:
    """Label connected components of the (optionally induced) graph.

    Runs on the selected kernel backend (:mod:`repro.kernels`): iterative
    BFS under ``python``, vectorised min-label union-find under ``numpy``.
    Both label components ``0..count-1`` by ascending minimum member id.

    Parameters
    ----------
    graph:
        The host graph.
    within:
        Optional vertex subset; components are computed in the induced
        subgraph, and vertices outside get label ``-1``.
    backend:
        Kernel backend selector (name, instance, or ``None`` for the
        ``REPRO_BACKEND`` / default resolution).

    Returns
    -------
    (labels, count)
        ``labels[v]`` is the component id of ``v`` (or ``-1`` outside
        ``within``); ``count`` is the number of components found.
    """
    n = graph.num_vertices
    if within is None:
        active = np.ones(n, dtype=bool)
    else:
        active = _member_mask(graph, within)
    return get_backend(backend).connected_components(graph, active)


def component_of(graph: Graph, source: int, within: Iterable[int] | None = None) -> np.ndarray:
    """Vertices reachable from ``source`` (restricted to ``within``)."""
    n = graph.num_vertices
    active = np.ones(n, dtype=bool) if within is None else _member_mask(graph, within)
    if not active[source]:
        raise ValueError(f"source {source} is not in the restricted vertex set")
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    queue = [source]
    indptr, indices = graph.indptr, graph.indices
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            if active[w] and not seen[w]:
                seen[w] = True
                queue.append(int(w))
    return np.flatnonzero(seen)


def is_connected(graph: Graph, within: Sequence[int] | None = None) -> bool:
    """Whether the (induced) graph is connected; empty graphs are not."""
    if within is not None and len(within) == 0:
        return False
    if within is None and graph.num_vertices == 0:
        return False
    _, count = connected_components(graph, within)
    return count == 1
