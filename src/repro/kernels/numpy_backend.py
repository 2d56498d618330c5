"""The vectorised backend: whole-frontier array passes over the hot paths.

Three ideas carry all the kernels:

* **Frontier peeling** (`peel_coreness`, `truss_peel`).  Batagelj–Zaversnik
  removes one minimum-degree vertex at a time, which is inherently
  sequential.  The equivalent *repeated pruning* formulation (Xiang,
  "Simple linear algorithms for mining graph cores", arXiv:1401.1771)
  removes the whole set ``{v : deg(v) <= k}`` per pass and only then
  raises ``k`` — coreness values are identical, and each pass is a
  handful of array operations: gather the frontier's adjacency slices,
  drop dead neighbours, and apply all degree decrements at once with a
  ``np.unique`` count.  The truss peel runs the same passes over edge
  supports, with each triangle listed once as three edge ids standing in
  for the adjacency slices.

* **Keyed binary search** (`count_triangles`, `triangles_per_vertex`,
  `edge_supports`).  A family of per-vertex sorted lists collapses into one
  globally sorted array under the key ``owner * n + value`` (ids and ranks
  are ``< n``, so the key is collision-free in int64).  Intersecting many
  list pairs then becomes a single batched ``np.searchsorted`` of needle
  keys against the global haystack.  Needle batches are chunked so peak
  memory stays bounded.

* **Min-label hooking** (`connected_components`).  Shiloach–Vishkin-style
  union-find: hook the larger root onto the smaller via ``np.minimum.at``,
  then compress with pointer jumping ``parent = parent[parent]`` until a
  fixpoint.  The surviving root of every component is its minimum vertex
  id, which reproduces the BFS labelling order exactly.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph, arc_positions
from .base import KernelBackend
from .common import concat_ranges, rank_forward_adjacency

__all__ = ["NumpyBackend"]

#: Needle elements per searchsorted batch (caps peak memory at ~32 MB).
_CHUNK = 1 << 22


class NumpyBackend(KernelBackend):
    """Vectorised kernels built on bincount/searchsorted/unique passes."""

    name = "numpy"

    # ------------------------------------------------------------------
    def peel_coreness(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        coreness = np.zeros(n, dtype=np.int64)
        if n == 0:
            return coreness
        indptr, indices = graph.indptr, graph.indices
        deg = graph.degrees().copy()
        alive = np.ones(n, dtype=bool)
        remaining = n
        k = 0
        while remaining:
            # Jump straight to the smallest remaining degree: empty levels
            # cost nothing, so kmax sparse graphs peel in few outer rounds.
            k = max(k, int(deg[alive].min()))
            frontier = np.flatnonzero(alive & (deg <= k))
            while frontier.size:
                coreness[frontier] = k
                alive[frontier] = False
                remaining -= frontier.size
                nbrs = concat_ranges(indices, indptr[frontier], indptr[frontier + 1])
                nbrs = nbrs[alive[nbrs]]
                if nbrs.size == 0:
                    break
                # Batch the degree decrements: one counting pass applies
                # every edge removal of this frontier at once.  bincount is
                # O(n) but unsorted; unique is O(s log s) — cross over when
                # the touched set is small relative to n.
                if nbrs.size * 8 >= n:
                    dec = np.bincount(nbrs, minlength=n)
                    deg -= dec
                    touched = np.flatnonzero(dec)
                else:
                    touched, dec = np.unique(nbrs, return_counts=True)
                    deg[touched] -= dec
                frontier = touched[deg[touched] <= k]
            k += 1
        return coreness

    def hindex_fixpoint(self, graph: Graph, estimate: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return np.empty(0, dtype=np.int64)
        indptr, indices = graph.indptr, graph.indices
        starts, stops = indptr[vertices], indptr[vertices + 1]
        lens = stops - starts
        nbr_vals = estimate[concat_ranges(indices, starts, stops)]
        seg = np.repeat(np.arange(vertices.size, dtype=np.int64), lens)
        # Descending values within each segment: one global lexsort replaces
        # a per-vertex sort.  With values descending and the in-segment
        # position ascending, ``value >= position + 1`` is a prefix property,
        # so the h-index is simply the per-segment count of satisfied rows.
        order = np.lexsort((-nbr_vals, seg))
        svals = nbr_vals[order]
        offsets = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        pos = np.arange(svals.size, dtype=np.int64) - offsets[seg]
        h = np.bincount(seg[svals >= pos + 1], minlength=vertices.size)
        return np.minimum(h.astype(np.int64), estimate[vertices])

    # ------------------------------------------------------------------
    def count_triangles(self, graph: Graph) -> int:
        total = 0
        for match, _, _, _ in _forward_matches(graph):
            total += int(match.sum())
        return total

    def triangles_per_vertex(self, graph: Graph) -> np.ndarray:
        n = graph.num_vertices
        per_vertex = np.zeros(n, dtype=np.int64)
        for match, corner_v, corner_u, corner_w in _forward_matches(graph):
            if not match.any():
                continue
            corners = np.concatenate([corner_v[match], corner_u[match], corner_w[match]])
            per_vertex += np.bincount(corners, minlength=n)
        return per_vertex

    def edge_supports(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        m = len(edges)
        support = np.zeros(m, dtype=np.int64)
        if m == 0:
            return support
        n = graph.num_vertices
        indptr, indices = graph.indptr, graph.indices
        deg = graph.degrees()
        # Probe from the lower-degree endpoint of each edge (the paper's
        # degree-based swap); count hits in the other endpoint's list.
        u, v = edges[:, 0], edges[:, 1]
        swap = deg[u] > deg[v]
        small = np.where(swap, v, u)
        big = np.where(swap, u, v)
        # Global haystack: every (owner, neighbour) pair as one sorted key.
        hay = np.repeat(np.arange(n, dtype=np.int64), deg) * n + indices
        block_len = deg[small]
        for lo, hi in _chunk_edges(block_len):
            starts = indptr[small[lo:hi]]
            needles = concat_ranges(indices, starts, starts + block_len[lo:hi])
            needles += np.repeat(big[lo:hi] * n, block_len[lo:hi])
            match, _ = _sorted_membership(hay, needles)
            seg = np.repeat(np.arange(hi - lo, dtype=np.int64), block_len[lo:hi])
            support[lo:hi] = np.bincount(seg[match], minlength=hi - lo)
        return support

    def truss_peel(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        m = len(edges)
        truss = np.zeros(m, dtype=np.int64)
        if m == 0:
            return truss
        tri = _triangle_edges(graph, edges)
        # Triangle ``t`` owns slots 3t..3t+2 of ``flat``; supports count the
        # slots per edge, and a stable sort by edge id is the edge ->
        # triangle incidence CSR.
        flat = tri.ravel()
        support = np.bincount(flat, minlength=m)
        inc = np.argsort(flat, kind="stable") // 3
        inc_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(support, out=inc_ptr[1:])
        edge_alive = np.ones(m, dtype=bool)
        tri_alive = np.ones(len(tri), dtype=bool)
        remaining = m
        k = 0
        while remaining:
            # Repeated pruning over supports, as peel_coreness does over
            # degrees: every alive edge with support <= k leaves at once.
            k = max(k, int(support[edge_alive].min()))
            frontier = np.flatnonzero(edge_alive & (support <= k))
            while frontier.size:
                truss[frontier] = k + 2
                edge_alive[frontier] = False
                remaining -= frontier.size
                hit = concat_ranges(inc, inc_ptr[frontier], inc_ptr[frontier + 1])
                # A triangle losing two edges in this pass dies once.
                hit = np.unique(hit[tri_alive[hit]])
                tri_alive[hit] = False
                nbrs = tri[hit].ravel()
                nbrs = nbrs[edge_alive[nbrs]]
                if nbrs.size == 0:
                    break
                if nbrs.size * 8 >= m:
                    dec = np.bincount(nbrs, minlength=m)
                    support -= dec
                    touched = np.flatnonzero(dec)
                else:
                    touched, dec = np.unique(nbrs, return_counts=True)
                    support[touched] -= dec
                frontier = touched[support[touched] <= k]
            k += 1
        return truss

    # ------------------------------------------------------------------
    def triangle_charges(self, ordered) -> np.ndarray:
        n = ordered.graph.num_vertices
        charges = np.zeros(n, dtype=np.int64)
        if n == 0:
            return charges
        indptr, indices = ordered.indptr, ordered.indices
        rank = ordered.rank
        # Higher-rank suffix of every (rank-sorted) adjacency slice: each
        # undirected edge contributes exactly one entry, owned by its
        # lower-rank endpoint.
        hr_start = indptr[:-1] + ordered.high
        hr_len = indptr[1:] - hr_start
        hr_idx = concat_ranges(indices, hr_start, hr_start + hr_len)
        if hr_idx.size == 0:
            return charges
        hr_rank = rank[hr_idx]
        hr_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hr_len, out=hr_ptr[1:])
        owners = np.repeat(np.arange(n, dtype=np.int64), hr_len)
        # One globally sorted haystack: suffixes are rank-sorted per owner
        # and owners ascend, so ``owner * n + rank`` needs no re-sort.
        hay = owners * n + hr_rank
        # For every arc v -> u (u higher-rank than v), intersect the two
        # suffixes H(v) and H(u); every match is one triangle whose
        # minimum-rank corner is v.  Probe from the smaller suffix into the
        # larger (the scalar reference's swap): on skewed graphs this cuts
        # the needle volume from sum |H(v)| to sum min(|H(v)|, |H(u)|).
        swap = hr_len[hr_idx] < hr_len[owners]
        small = np.where(swap, hr_idx, owners)
        big = np.where(swap, owners, hr_idx)
        probe_len = hr_len[small]
        # Sentinel pad: out-of-range searchsorted positions hit the -1 slot,
        # saving a clamp-and-revalidate pass over the needles.
        hay_pad = np.concatenate([hay, [-1]])
        for lo, hi in _chunk_edges(probe_len):
            lens = probe_len[lo:hi]
            starts = hr_ptr[small[lo:hi]]
            needles = concat_ranges(hr_rank, starts, starts + lens)
            needles += np.repeat(big[lo:hi] * n, lens)
            match = hay_pad[np.searchsorted(hay, needles)] == needles
            # Per-arc hit counts via prefix sums (cheaper than repeating the
            # owner ids across every needle and masking).
            cum = np.concatenate([[0], np.cumsum(match)])
            offsets = np.concatenate([[0], np.cumsum(lens)])
            hits = cum[offsets[1:]] - cum[offsets[:-1]]
            charges += np.bincount(owners[lo:hi], weights=hits, minlength=n).astype(np.int64)
        return charges

    def triplet_group_deltas(self, ordered, groups: list[np.ndarray]) -> np.ndarray:
        n = ordered.graph.num_vertices
        indptr, indices, same = ordered.indptr, ordered.indices, ordered.same
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        if not sizes.sum():
            return np.zeros(len(groups), dtype=np.int64)
        members = np.concatenate(groups).astype(np.int64, copy=False)
        group_of = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
        gid = np.full(n, -1, dtype=np.int64)
        gid[members] = group_of
        # Centres inside a group: any two of a member's >=-level neighbours.
        # Sums are exact int64 ``add.at`` segment sums, never float weights.
        ge = indptr[members + 1] - indptr[members] - same[members]
        deltas = np.zeros(len(groups), dtype=np.int64)
        np.add.at(deltas, group_of, ge * (ge - 1) // 2)
        # Centres x of higher level.  x's lower-level prefix is rank-sorted,
        # so level-sorted, and meets at most one group per level (two would
        # share x and so be one component): group g's neighbours form one
        # run of length eq, and every grouped neighbour after it has a
        # greater level (gt of them).  Charging each run arc the grouped
        # arcs after it in the row sums to C(eq, 2) + gt * eq per run.
        after = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum((gid >= 0)[indices], out=after[1:])
        lo, hi = indptr[:-1], indptr[:-1] + same
        target = gid[concat_ranges(indices, lo, hi)]
        tail = np.repeat(after[indptr[1:]], same) - concat_ranges(after[1:], lo, hi)
        run = target >= 0
        np.add.at(deltas, target[run], tail[run])
        return deltas

    # ------------------------------------------------------------------
    def connected_components(self, graph: Graph, active: np.ndarray) -> tuple[np.ndarray, int]:
        n = graph.num_vertices
        labels = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return labels, 0
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        dst = graph.indices
        keep = (src < dst) & active[src] & active[dst]
        es, ed = src[keep], dst[keep]
        parent = np.arange(n, dtype=np.int64)
        while True:
            ps, pd = parent[es], parent[ed]
            unsettled = ps != pd
            if not unsettled.any():
                break
            hi = np.maximum(ps[unsettled], pd[unsettled])
            lo = np.minimum(ps[unsettled], pd[unsettled])
            # Hook the larger root onto the smaller; ``.at`` resolves
            # conflicting hooks of one root by keeping the minimum.
            np.minimum.at(parent, hi, lo)
            # Pointer jumping (path halving) until fully compressed.
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
        active_idx = np.flatnonzero(active)
        if active_idx.size == 0:
            return labels, 0
        # The root of each component is its minimum member, so ranking the
        # sorted unique roots reproduces the BFS labelling order.
        roots, inverse = np.unique(parent[active_idx], return_inverse=True)
        labels[active_idx] = inverse
        return labels, len(roots)

    # ------------------------------------------------------------------
    def subcore_repair(self, indptr, indices, active, xptr, xindices, xactive,
                       core, ops_u, ops_v, ops_kind, limit):
        n = len(indptr) - 1
        nops = len(ops_u)
        if n == 0 or nops == 0:
            return np.int64(nops)
        two_part = (indptr, indices, active, xptr, xindices, xactive)

        # Phase 1 — deletes, all at once: deactivate the arcs, then run a
        # synchronous (Jacobi) descent of the clipped h-index operator over
        # the dirty set.  Like the scalar chaotic descent, any drained
        # fixpoint below the old coreness *is* the new coreness, so the
        # round structure does not change the answer.
        dels = ops_kind == 0
        if dels.any():
            heads = np.concatenate([ops_u[dels], ops_v[dels]])
            tails = np.concatenate([ops_v[dels], ops_u[dels]])
            active[arc_positions(indptr, indices, heads, tails)] = 0
            dirty = np.unique(heads)
            while dirty.size:
                h = np.minimum(
                    _masked_hindex(two_part, core, dirty), core[dirty]
                )
                drop = h < core[dirty]
                if not drop.any():
                    break
                droppers = dirty[drop]
                newvals = h[drop]
                oldvals = core[droppers].copy()
                core[droppers] = newvals
                # A neighbour can only drop if its value sits in
                # (new, old]: thresholds <= new still see the dropper,
                # and it never counted toward thresholds above old.
                nbrs, seg = _masked_neighbors(two_part, droppers)
                affected = nbrs[
                    (core[nbrs] > newvals[seg]) & (core[nbrs] <= oldvals[seg])
                ]
                dirty = np.unique(affected)

        # Phase 2 — inserts, one edge at a time (the subcore theorem is a
        # single-edge statement): frontier BFS of the root subcore, one
        # batched support count, then repeated pruning of the optimistic
        # peel.  member/alive/slot scratch is reset via the touched list.
        member = np.zeros(n, dtype=bool)
        alive = np.ones(n, dtype=bool)
        slot = np.zeros(n, dtype=np.int64)
        for i in np.flatnonzero(ops_kind == 1):
            u, v = int(ops_u[i]), int(ops_v[i])
            for a, b in ((u, v), (v, u)):
                row = xindices[xptr[a]:xptr[a + 1]]
                pos = int(np.searchsorted(row, b))
                if pos < len(row) and row[pos] == b:
                    xactive[xptr[a] + pos] = 1
            cu, cv = int(core[u]), int(core[v])
            level = min(cu, cv)
            root = u if cu <= cv else v
            member[root] = True
            parts = [np.array([root], dtype=np.int64)]
            frontier, total = parts[0], 1
            bailed = False
            while frontier.size:
                nbrs, _ = _masked_neighbors(two_part, frontier)
                nbrs = np.unique(nbrs[core[nbrs] == level])
                frontier = nbrs[~member[nbrs]]
                member[frontier] = True
                total += frontier.size
                if total > int(limit):
                    bailed = True
                    break
                if frontier.size:
                    parts.append(frontier)
            mem = np.concatenate(parts)
            if bailed:
                member[mem] = False
                return np.int64(i)
            slot[mem] = np.arange(mem.size, dtype=np.int64)
            nbrs, seg = _masked_neighbors(two_part, mem)
            supp = np.bincount(
                seg[(core[nbrs] > level) | member[nbrs]], minlength=mem.size
            )
            removals = mem[supp[slot[mem]] <= level]
            while removals.size:
                alive[removals] = False
                nbrs, _ = _masked_neighbors(two_part, removals)
                nbrs = nbrs[member[nbrs] & alive[nbrs]]
                if nbrs.size == 0:
                    break
                supp -= np.bincount(slot[nbrs], minlength=mem.size)
                cand = np.unique(nbrs)
                removals = cand[supp[slot[cand]] <= level]
            risers = mem[alive[mem]]
            core[risers] = level + 1
            member[mem] = False
            alive[mem] = True
        return np.int64(nops)

    # ------------------------------------------------------------------
    def vertex_strengths(self, graph: Graph, arc_weights: np.ndarray) -> np.ndarray:
        n = graph.num_vertices
        strength = np.zeros(n, dtype=np.float64)
        if len(arc_weights) == 0:
            return strength
        indptr = graph.indptr
        nonempty = np.flatnonzero(np.diff(indptr) > 0)
        # reduceat needs strictly in-range start offsets; empty slices are
        # already zero, so reduce only the non-empty rows.
        strength[nonempty] = np.add.reduceat(arc_weights, indptr[nonempty])
        return strength


# ----------------------------------------------------------------------
# Masked two-part adjacency helpers (batched subcore repair)
# ----------------------------------------------------------------------

def _masked_neighbors(two_part, verts) -> tuple[np.ndarray, np.ndarray]:
    """``(nbrs, seg)`` of the active arcs out of ``verts`` across both the
    masked old CSR and the extra CSR of inserted arcs."""
    indptr, indices, active, xptr, xindices, xactive = two_part
    o_start, o_stop = indptr[verts], indptr[verts + 1]
    o_keep = concat_ranges(active, o_start, o_stop).astype(bool)
    o_seg = np.repeat(np.arange(verts.size, dtype=np.int64), o_stop - o_start)
    x_start, x_stop = xptr[verts], xptr[verts + 1]
    x_keep = concat_ranges(xactive, x_start, x_stop).astype(bool)
    x_seg = np.repeat(np.arange(verts.size, dtype=np.int64), x_stop - x_start)
    nbrs = np.concatenate([
        concat_ranges(indices, o_start, o_stop)[o_keep],
        concat_ranges(xindices, x_start, x_stop)[x_keep],
    ])
    return nbrs, np.concatenate([o_seg[o_keep], x_seg[x_keep]])


def _masked_hindex(two_part, core, verts) -> np.ndarray:
    """Per-vertex h-index of the active neighbours' core values (same
    lexsort formulation as :meth:`NumpyBackend.hindex_fixpoint`)."""
    nbrs, seg = _masked_neighbors(two_part, verts)
    vals = core[nbrs]
    order = np.lexsort((-vals, seg))
    svals = vals[order]
    sseg = seg[order]
    lens = np.bincount(seg, minlength=verts.size)
    offsets = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    pos = np.arange(svals.size, dtype=np.int64) - offsets[sseg]
    return np.bincount(sseg[svals >= pos + 1], minlength=verts.size).astype(np.int64)


# ----------------------------------------------------------------------
# Batched keyed-search helpers
# ----------------------------------------------------------------------

def _sorted_membership(hay: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, pos)``: which needles occur in sorted ``hay``, and where."""
    pos = np.searchsorted(hay, needles)
    pos_ok = np.minimum(pos, len(hay) - 1)
    return (hay[pos_ok] == needles) & (pos < len(hay)), pos_ok


def _chunk_edges(block_len: np.ndarray):
    """Split edge indices into chunks of ~``_CHUNK`` needle elements."""
    m = len(block_len)
    cum = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(block_len)])
    lo = 0
    while lo < m:
        hi = int(np.searchsorted(cum, cum[lo] + _CHUNK))
        hi = min(max(hi, lo + 1), m)
        yield lo, hi
        lo = hi


def _forward_matches(graph: Graph):
    """Yield batched triangle matches under the rank-forward orientation.

    Each yielded tuple is ``(match, v, u, w)`` over one chunk of directed
    out-edges ``v -> u``: ``match[i]`` says whether the ``i``-th needle (an
    element ``w`` of ``out(v)``) also occurs in ``out(u)``, i.e. whether
    ``{v, u, w}`` is a triangle.  Every triangle appears exactly once
    because the forward orientation gives it a unique minimum-rank corner.
    """
    n = graph.num_vertices
    out_ptr, out_idx, order_val = rank_forward_adjacency(graph)
    if len(out_idx) == 0:
        return
    out_rank = order_val[out_idx]
    out_deg = np.diff(out_ptr)
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    # Haystack: out-lists are rank-sorted per vertex, so keying by
    # ``owner * n + rank`` yields one globally sorted, collision-free array.
    hay = src * n + out_rank
    block_len = out_deg[src]
    for lo, hi in _chunk_edges(block_len):
        v = src[lo:hi]
        u = out_idx[lo:hi]
        lens = block_len[lo:hi]
        starts = out_ptr[v]
        needles = concat_ranges(out_rank, starts, starts + lens)
        needles += np.repeat(u * n, lens)
        match, pos = _sorted_membership(hay, needles)
        corner_v = np.repeat(v, lens)
        corner_u = np.repeat(u, lens)
        corner_w = out_idx[pos]
        yield match, corner_v, corner_u, corner_w


def _triangle_edges(graph: Graph, edges: np.ndarray) -> np.ndarray:
    """``(T, 3)`` edge ids of every triangle, each triangle listed once.

    Edge ids index ``edges``, the graph's edge list in
    :meth:`Graph.edge_array` order, whose keys ``u * n + v`` ascend.
    Corner pairs are keyed ``min * n + max`` and found with one
    ``searchsorted`` on those keys.
    """
    n = graph.num_vertices
    keys = edges[:, 0] * n + edges[:, 1]
    parts = [np.empty((0, 3), dtype=np.int64)]
    for match, corner_v, corner_u, corner_w in _forward_matches(graph):
        a, b, c = corner_v[match], corner_u[match], corner_w[match]
        pairs = np.stack([
            np.minimum(a, b) * n + np.maximum(a, b),
            np.minimum(a, c) * n + np.maximum(a, c),
            np.minimum(b, c) * n + np.maximum(b, c),
        ], axis=1)
        parts.append(np.searchsorted(keys, pairs))
    return np.concatenate(parts)
