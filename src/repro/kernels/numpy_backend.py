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

* **Hashed, tail-bounded probes** (`triangle_charges`, `count_triangles`,
  `truss_peel`).  A family of per-vertex lists collapses into one set of
  keys ``owner * n + value`` (ids and ranks are ``< n``, so the key is
  collision-free in int64), held in one exact open-addressing `_KeyTable`.
  Intersecting many list pairs then becomes a single batched lookup of
  needle keys, about one probe per needle instead of a binary search.  The triangle kernels also bound each
  probe by the tail: for arc ``v -> u`` at slot ``j`` of ``v``'s
  rank-sorted higher-rank list, only the entries after ``j`` outrank ``u``,
  so each arc probes ``min(tail, |H(u)|)`` needles.  Needle batches are
  chunked by `_chunk_edges`.

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

#: Needle elements per probe batch.  A batch costs ~41 bytes of scratch
#: per needle on top of the key table and the one whole per-arc array
#: (probe lengths): measured under ``tracemalloc``, ``triangle_charges``
#: on a 50k-vertex, 248k-edge Chung–Lu graph (0.89M needles, 14 batches)
#: peaks at 23.4 MiB, 8 MiB of it the key table.  Small batches also keep
#: the probe arrays in cache.
_CHUNK = 1 << 16


class NumpyBackend(KernelBackend):
    """Vectorised kernels built on bincount/hash-probe/unique passes."""

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
        return sum(len(v) for v, _, _ in _graph_triangles(graph))

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
        # Higher-rank suffix H(v) of every (rank-sorted) adjacency slice:
        # each undirected edge contributes exactly one entry, owned by its
        # lower-rank endpoint, so the suffixes are a forward adjacency.
        hr_start = indptr[:-1] + ordered.high
        hr_len = indptr[1:] - hr_start
        hr_idx = concat_ranges(indices, hr_start, hr_start + hr_len)
        hr_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hr_len, out=hr_ptr[1:])
        # Every triangle is found once, from its minimum-rank corner.
        for v, _, _ in _forward_triangles(hr_ptr, hr_idx, ordered.rank[hr_idx]):
            charges += np.bincount(v, minlength=n)
        return charges

    def triplet_charges(self, ordered) -> np.ndarray:
        indptr, indices, same = ordered.indptr, ordered.indices, ordered.same
        # Centre y with both legs at level >= level(y): charged to y.
        ge = np.diff(indptr) - same
        charges = ge * (ge - 1) // 2
        # Centre x whose lowest-rank leg y has a lower level: the row is
        # rank-sorted, so y's arc in x's lower-level prefix pairs with
        # every arc after it, each pair charged to y.  Exact int64 sums.
        slots = np.repeat(indptr[:-1] + same - np.cumsum(same), same)
        slots += np.arange(len(slots), dtype=np.int64)
        tail = np.repeat(indptr[1:], same) - slots - 1
        np.add.at(charges, indices[slots], tail)
        return charges

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
# Hashed triangle probes
# ----------------------------------------------------------------------

class _KeyTable:
    """Exact membership for a set of non-negative int64 keys.

    Open addressing with linear probing in ``>= 4x`` as many slots as
    keys (empty slots hold -1), multiplicative (Fibonacci) hashing of the
    key's bits, and a full-key compare, so there are no false positives.
    Insert and lookup both walk all pending keys one slot per round.  An
    insert round writes pending keys into their free slots and reads them
    back: where several keys write one slot, whichever write lands wins
    and the others move on, so the table never depends on that choice.
    """

    _MUL = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        bits = (4 * max(len(keys), 1) - 1).bit_length()
        self._shift = np.uint64(64 - bits)
        self._mask = (1 << bits) - 1
        self.slots = np.full(1 << bits, -1, dtype=np.int64)
        pos = self.home(keys)
        while keys.size:
            free = self.slots[pos] < 0
            self.slots[pos[free]] = keys[free]
            wait = self.slots[pos] != keys
            keys = keys[wait]
            pos = (pos[wait] + 1) & self._mask

    def home(self, keys: np.ndarray) -> np.ndarray:
        """The first slot probed for each key."""
        h = keys.view(np.uint64) * self._MUL
        h >>= self._shift
        return h.view(np.int64)

    def contains(self, needles: np.ndarray) -> np.ndarray:
        """Boolean mask: which (non-negative) ``needles`` are keys."""
        needles = np.asarray(needles, dtype=np.int64)
        pos = self.home(needles)
        got = self.slots[pos]
        found = got == needles
        # Walk on past occupied slots holding other keys; an empty slot
        # ends the probe sequence.
        todo = np.flatnonzero(~found & (got >= 0))
        pos = pos[todo]
        while todo.size:
            pos = (pos + 1) & self._mask
            got = self.slots[pos]
            hit = got == needles[todo]
            found[todo[hit]] = True
            go = ~hit & (got >= 0)
            todo, pos = todo[go], pos[go]
        return found


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


def _forward_triangles(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray):
    """Yield ``(v, u, w)`` corner arrays, chunk by chunk, of every triangle.

    ``idx[ptr[v]:ptr[v + 1]]`` lists the out-neighbours of ``v`` sorted by
    ``val`` (a rank ``< n``), each higher in rank than ``v``.  Each
    triangle is reported once, with its corners in ascending rank.

    Arc ``v -> u`` at slot ``j`` of ``v``'s list can only meet ``u``'s list
    in ``v``'s tail after ``j``: every entry up to ``j`` ranks at most
    ``u``.  So the arc probes the shorter of that tail (keyed by ``u``)
    and ``u``'s whole list (keyed by ``v``) against one key table of all
    ``owner * n + val`` pairs.
    """
    n = len(ptr) - 1
    deg = np.diff(ptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    table = _KeyTable(src * n + val)
    # Probe lengths are the only whole per-arc array; each batch derives
    # its arcs' tails, sides and start slots on its own.
    lens = np.minimum(ptr[src + 1] - np.arange(len(idx), dtype=np.int64) - 1, deg[idx])
    for lo, hi in _chunk_edges(lens):
        arc_src, arc_dst, seg_lens = src[lo:hi], idx[lo:hi], lens[lo:hi]
        arcs = np.arange(lo, hi, dtype=np.int64)
        swap = deg[arc_dst] < ptr[arc_src + 1] - arcs - 1
        starts = np.where(swap, ptr[arc_dst], arcs + 1)
        ends = np.cumsum(seg_lens)
        # Needle i of arc a probes position starts[a] + i - (ends[a] - lens[a]).
        at = np.repeat(starts - ends + seg_lens, seg_lens)
        at += np.arange(at.size, dtype=np.int64)
        needles = val[at]
        needles += np.repeat(np.where(swap, arc_src, arc_dst) * n, seg_lens)
        match = np.flatnonzero(table.contains(needles))
        arc = lo + np.searchsorted(ends, match, side="right")
        yield src[arc], idx[arc], idx[at[match]]


def _graph_triangles(graph: Graph):
    """`_forward_triangles` over the degree-ordered forward adjacency of
    :func:`rank_forward_adjacency`."""
    out_ptr, out_idx, order_val = rank_forward_adjacency(graph)
    return _forward_triangles(out_ptr, out_idx, order_val[out_idx])


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
    for a, b, c in _graph_triangles(graph):
        pairs = np.stack([
            np.minimum(a, b) * n + np.maximum(a, b),
            np.minimum(a, c) * n + np.maximum(a, c),
            np.minimum(b, c) * n + np.maximum(b, c),
        ], axis=1)
        parts.append(np.searchsorted(keys, pairs))
    return np.concatenate(parts)
