"""The scalar reference backend.

The five loop kernels (the exact peel and its coreness, the h-index round,
Algorithm 3's triangle and triplet charges, the batched subcore repair)
run the python twins in :mod:`repro.kernels._native_impl` uncompiled,
through the one adapter of :mod:`repro.kernels.loops` — the same loop
bodies the ``native`` backend compiles.  The other four kernels are plain
per-vertex loops kept here as the reference the vectorised backend is
tested against.  Keep them boring: their job is to be obviously correct,
not fast.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from .base import KernelBackend
from .common import rank_forward_adjacency
from .loops import LoopKernels

__all__ = ["PythonBackend"]


class PythonBackend(LoopKernels, KernelBackend):
    """Reference implementations: the loop twins plus scalar loops."""

    name = "python"

    # ------------------------------------------------------------------
    def count_triangles(self, graph: Graph) -> int:
        out_ptr, out_idx, order_val = rank_forward_adjacency(graph)
        out_rank = order_val[out_idx]
        total = 0
        n = graph.num_vertices
        for v in range(n):
            a, b = out_ptr[v], out_ptr[v + 1]
            if b - a < 1:
                continue
            ranks_v = out_rank[a:b]
            for j in range(a, b):
                u = out_idx[j]
                ua, ub = out_ptr[u], out_ptr[u + 1]
                if ua == ub:
                    continue
                ranks_u = out_rank[ua:ub]
                # Sorted-merge membership count: |out(v) ∩ out(u)|.
                pos = np.searchsorted(ranks_u, ranks_v)
                valid = pos < len(ranks_u)
                total += int((ranks_u[pos[valid]] == ranks_v[valid]).sum())
        return total

    def truss_peel(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        m = len(edges)
        truss = np.zeros(m, dtype=np.int64)
        if m == 0:
            return truss
        n = graph.num_vertices

        edge_id = {(int(u), int(v)): i for i, (u, v) in enumerate(edges)}

        def eid(a: int, b: int) -> int:
            return edge_id[(a, b)] if a < b else edge_id[(b, a)]

        # Adjacency as sets for O(1) membership during peeling; an edge's
        # initial support is the size of its endpoints' common neighbourhood.
        adj = [set(map(int, graph.neighbors(v))) for v in range(n)]
        support = np.array(
            [len(adj[u] & adj[v]) for u, v in edges.tolist()], dtype=np.int64
        )

        # Bucket peeling over supports.
        max_support = int(support.max()) if m else 0
        buckets: list[list[int]] = [[] for _ in range(max_support + 1)]
        for i in range(m):
            buckets[support[i]].append(i)
        removed = np.zeros(m, dtype=bool)
        support_l = support.tolist()

        current_floor = 0
        processed = 0
        level = 0
        while processed < m:
            while level <= max_support and not buckets[level]:
                level += 1
            i = buckets[level].pop()
            if removed[i] or support_l[i] != level:
                continue  # stale bucket entry
            u, v = int(edges[i][0]), int(edges[i][1])
            current_floor = max(current_floor, support_l[i])
            truss[i] = current_floor + 2
            removed[i] = True
            processed += 1
            adj[u].discard(v)
            adj[v].discard(u)
            small, large = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
            for w in list(adj[small]):
                if w in adj[large]:
                    for other in (eid(u, w), eid(v, w)):
                        if not removed[other] and support_l[other] > current_floor:
                            support_l[other] -= 1
                            buckets[support_l[other]].append(other)
            # Removing an edge can only lower supports, so restart the scan
            # at the current floor (supports never drop below it).
            level = min(level, current_floor)
        return truss

    # ------------------------------------------------------------------
    def connected_components(self, graph: Graph, active: np.ndarray) -> tuple[np.ndarray, int]:
        n = graph.num_vertices
        labels = np.full(n, -1, dtype=np.int64)
        indptr, indices = graph.indptr, graph.indices
        count = 0
        queue = np.empty(n, dtype=np.int64)
        for start in np.flatnonzero(active):
            if labels[start] != -1:
                continue
            labels[start] = count
            queue[0] = start
            head, tail = 0, 1
            while head < tail:
                v = queue[head]
                head += 1
                for w in indices[indptr[v]:indptr[v + 1]]:
                    if active[w] and labels[w] == -1:
                        labels[w] = count
                        queue[tail] = w
                        tail += 1
            count += 1
        return labels, count

    # ------------------------------------------------------------------
    def vertex_strengths(self, graph: Graph, arc_weights: np.ndarray) -> np.ndarray:
        n = graph.num_vertices
        indptr = graph.indptr
        strength = np.zeros(n, dtype=np.float64)
        for v in range(n):
            strength[v] = arc_weights[indptr[v]:indptr[v + 1]].sum()
        return strength
