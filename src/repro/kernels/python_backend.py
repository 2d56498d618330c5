"""The scalar reference backend.

Every kernel here is the original per-vertex/per-edge loop the package
shipped with, verbatim — the bit-identical yardstick the vectorised backend
is tested against.  Keep these implementations boring: their job is to be
obviously correct, not fast.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from .base import KernelBackend
from .common import exact_peel, rank_forward_adjacency

__all__ = ["PythonBackend"]


class PythonBackend(KernelBackend):
    """Reference implementations: scalar loops over ``.tolist()`` copies."""

    name = "python"

    # ------------------------------------------------------------------
    def peel_coreness(self, graph: Graph) -> np.ndarray:
        coreness, _ = exact_peel(graph)
        return coreness

    def hindex_fixpoint(self, graph: Graph, estimate: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        out = np.empty(len(vertices), dtype=np.int64)
        indptr, indices = graph.indptr, graph.indices
        for i, v in enumerate(np.asarray(vertices, dtype=np.int64).tolist()):
            vals = sorted(
                (int(estimate[u]) for u in indices[indptr[v]:indptr[v + 1]]),
                reverse=True,
            )
            h = 0
            for value in vals:
                if value >= h + 1:
                    h += 1
                else:
                    break
            out[i] = min(h, int(estimate[v]))
        return out

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

    def triangles_per_vertex(self, graph: Graph) -> np.ndarray:
        out_ptr, out_idx, order_val = rank_forward_adjacency(graph)
        out_rank = order_val[out_idx]
        n = graph.num_vertices
        per_vertex = np.zeros(n, dtype=np.int64)
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
                pos = np.searchsorted(ranks_u, ranks_v)
                valid = pos < len(ranks_u)
                hits = np.flatnonzero(valid)[ranks_u[pos[valid]] == ranks_v[valid]]
                if len(hits):
                    per_vertex[v] += len(hits)
                    per_vertex[u] += len(hits)
                    np.add.at(per_vertex, out_idx[a:b][hits], 1)
        return per_vertex

    def edge_supports(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        m = len(edges)
        support = np.zeros(m, dtype=np.int64)
        if m == 0:
            return support
        adj = [set(map(int, graph.neighbors(v))) for v in range(graph.num_vertices)]
        for i, (u, v) in enumerate(edges):
            u, v = int(u), int(v)
            small, large = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
            support[i] = sum(1 for w in adj[small] if w in adj[large])
        return support

    def truss_peel(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        m = len(edges)
        truss = np.zeros(m, dtype=np.int64)
        if m == 0:
            return truss
        n = graph.num_vertices

        edge_id = {(int(u), int(v)): i for i, (u, v) in enumerate(edges)}

        def eid(a: int, b: int) -> int:
            return edge_id[(a, b)] if a < b else edge_id[(b, a)]

        # Adjacency as sets for O(1) membership during peeling.
        adj = [set(map(int, graph.neighbors(v))) for v in range(n)]

        support = self.edge_supports(graph, edges)

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
    def triangle_charges(self, ordered) -> np.ndarray:
        n = ordered.graph.num_vertices
        indptr, indices = ordered.indptr, ordered.indices
        rank = ordered.rank
        hr_start = (indptr[:-1] + ordered.high).tolist()
        hr_stop = indptr[1:].tolist()
        nbr_rank = rank[indices]
        charges = np.zeros(n, dtype=np.int64)
        for v in range(n):
            a, b = hr_start[v], hr_stop[v]
            if b - a < 2:
                continue
            ranks_v = nbr_rank[a:b]
            count = 0
            for u in indices[a:b].tolist():
                ua, ub = hr_start[u], hr_stop[u]
                if ua == ub:
                    continue
                ranks_u = nbr_rank[ua:ub]
                # Intersect the smaller list into the larger (the paper's
                # degree-based swap) via binary search on sorted ranks.
                if len(ranks_v) <= len(ranks_u):
                    needle, hay = ranks_v, ranks_u
                else:
                    needle, hay = ranks_u, ranks_v
                pos = np.searchsorted(hay, needle)
                valid = pos < len(hay)
                count += int((hay[pos[valid]] == needle[valid]).sum())
            charges[v] = count
        return charges

    def triplet_group_deltas(self, ordered, groups: list[np.ndarray]) -> np.ndarray:
        n = ordered.graph.num_vertices
        indptr = ordered.indptr.tolist()
        indices = ordered.indices.tolist()
        same = ordered.same.tolist()
        plus = ordered.plus.tolist()
        f_ge = [0] * n
        deltas = np.zeros(len(groups), dtype=np.int64)
        for i, members in enumerate(groups):
            members = [int(v) for v in members]
            if not members:
                continue
            delta = 0
            frontier: set[int] = set()
            for v in members:
                a, b = indptr[v], indptr[v + 1]
                ge = (b - a) - same[v]
                delta += ge * (ge - 1) // 2
                # Frontier: neighbours with strictly greater coreness/level.
                for j in range(a + plus[v], b):
                    frontier.add(indices[j])
            before = {w: f_ge[w] for w in frontier}
            for v in members:
                for j in range(indptr[v], indptr[v + 1]):
                    f_ge[indices[j]] += 1
            for w in frontier:
                gt = before[w]
                eq = f_ge[w] - gt
                delta += eq * (eq - 1) // 2 + gt * eq
            deltas[i] = delta
        return deltas

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

    # ------------------------------------------------------------------
    def subcore_repair(self, indptr, indices, active, xptr, xindices, xactive,
                       core, ops_u, ops_v, ops_kind, limit):
        # The raw loop kernel *is* the scalar reference — run it uncompiled.
        from ._native_impl import subcore_repair as raw

        return raw(indptr, indices, active, xptr, xindices, xactive,
                   core, ops_u, ops_v, ops_kind, limit)
