"""The loop kernels, as plain python: the one python body of each C function.

Every function here takes exactly the arguments of the C function of the
same name in :mod:`repro.kernels._native_cc` (``repro_<name>``), in the
same order: sizes, raw CSR arrays, outputs and scratch, all allocated by
the caller.  Each body is the C loop, statement for statement, so the
equivalence suite runs a twin uncompiled next to its compiled kernel and
demands identical arrays.  The one adapter, :mod:`repro.kernels.loops`,
marshals graphs and orderings into these arguments for both: the
``python`` backend runs the twins, the ``native`` backend the C.

The whole-graph passes (the peel and both charge kernels) first copy
their inputs into lists, which CPython indexes several times faster than
ndarrays, and write their outputs back at the end.  ``hindex_fixpoint``
and ``subcore_repair`` touch a slice of the graph per call, so they index
the arrays directly.

* ``peel_exact`` — Batagelj–Zaveršnik bucket peel: coreness plus the
  exact removal order ``vert`` (a degeneracy ordering).
* ``hindex_fixpoint`` — one Jacobi round of the clipped h-index operator
  over ``vertices``, by counting (``counts`` arrives and leaves zeroed).
* ``triangle_charges`` / ``triplet_charges`` — Algorithm 3's per-vertex
  charges: merge-intersection of higher-rank suffixes, and one pass over
  every row's lower-level prefix.
* ``subcore_repair`` — batched incremental core maintenance over the old
  CSR with an arc-active mask plus an "extra" CSR of the delta's inserted
  arcs: deletes by an exact chaotic h-index descent from the old
  coreness, inserts one edge at a time as optimistic subcore peels.
  ``core`` / ``active`` / ``xactive`` are mutated in place; a return
  value short of ``nops`` means an insert's subcore traversal blew past
  ``limit``, and the caller must discard the arrays and re-peel.
"""

from __future__ import annotations

__all__ = ["hindex_fixpoint", "peel_exact", "subcore_repair", "triangle_charges",
           "triplet_charges"]


def peel_exact(n, indptr, indices, deg, max_deg, coreness, vert, pos, bin_start, cursor):
    indptr, indices, deg = indptr.tolist(), indices.tolist(), deg.tolist()
    core_l, vert_l = coreness.tolist(), vert.tolist()
    pos, bin_start, cursor = pos.tolist(), bin_start.tolist(), cursor.tolist()
    # Counting sort by degree: bin_start[d] is where degree-d vertices
    # begin in vert, pos[v] is v's slot.
    for d in range(max_deg + 2):
        bin_start[d] = 0
    for v in range(n):
        bin_start[deg[v] + 1] += 1
    for d in range(1, max_deg + 2):
        bin_start[d] += bin_start[d - 1]
    for d in range(max_deg + 2):
        cursor[d] = bin_start[d]
    for v in range(n):
        d = deg[v]
        p = cursor[d]
        vert_l[p] = v
        pos[v] = p
        cursor[d] = p + 1
    for i in range(n):
        v = vert_l[i]
        dv = deg[v]
        core_l[v] = dv
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            du = deg[u]
            if du > dv:
                # Swap u with the first vertex of its bucket, then shrink
                # the bucket from the left: u's degree drops by one.
                first = bin_start[du]
                w = vert_l[first]
                if u != w:
                    pu = pos[u]
                    vert_l[first] = u
                    vert_l[pu] = w
                    pos[u] = first
                    pos[w] = pu
                bin_start[du] = first + 1
                deg[u] = du - 1
    coreness[:] = core_l
    vert[:] = vert_l


def hindex_fixpoint(nv, vertices, indptr, indices, estimate, out, counts):
    for i in range(nv):
        v = vertices[i]
        a = indptr[v]
        b = indptr[v + 1]
        d = b - a
        # Bucket-count the neighbour values clipped to [0, d], then one
        # descending scan finds the largest x with >= x values at least x.
        for j in range(a, b):
            val = estimate[indices[j]]
            if val < 0:
                val = 0
            if val > d:
                val = d
            counts[val] += 1
        h = 0
        acc = 0
        for x in range(d, 0, -1):
            acc += counts[x]
            if acc >= x:
                h = x
                break
        for j in range(a, b):
            val = estimate[indices[j]]
            if val < 0:
                val = 0
            if val > d:
                val = d
            counts[val] = 0
        ev = estimate[v]
        out[i] = h if h < ev else ev


def triangle_charges(n, indptr, indices, nbr_rank, high, charges):
    indptr, indices, high = indptr.tolist(), indices.tolist(), high.tolist()
    nbr_rank, out = nbr_rank.tolist(), charges.tolist()
    for v in range(n):
        a = indptr[v] + high[v]
        b = indptr[v + 1]
        total = 0
        for j in range(a, b):
            u = indices[j]
            c = indptr[u] + high[u]
            d = indptr[u + 1]
            # Merge-intersect the two higher-rank suffixes H(v), H(u)
            # (rank-sorted): every match is one triangle whose
            # minimum-rank corner is v.  Only the part of H(v) after u
            # outranks u, so the merge starts there.
            p = j + 1
            q = c
            while p < b and q < d:
                x = nbr_rank[p]
                y = nbr_rank[q]
                if x < y:
                    p += 1
                elif y < x:
                    q += 1
                else:
                    total += 1
                    p += 1
                    q += 1
        out[v] = total
    charges[:] = out


def triplet_charges(n, indptr, indices, same, charges):
    indptr, indices = indptr.tolist(), indices.tolist()
    same, out = same.tolist(), charges.tolist()
    for x in range(n):
        a = indptr[x]
        b = indptr[x + 1]
        ge = (b - a) - same[x]
        out[x] += ge * (ge - 1) // 2
        # Each lower-level neighbour is the lowest-rank leg of one
        # triplet centred at x per arc after it in the rank-sorted row.
        for j in range(a, a + same[x]):
            out[indices[j]] += b - j - 1
    charges[:] = out


def subcore_repair(n, indptr, indices, active, xptr, xindices, xactive, core,
                   nops, ops_u, ops_v, ops_kind, limit, stamp, removed, support,
                   members, stack, inq, counts):
    # Phase 1 — deletes, all at once.  Deactivate every deleted arc, then
    # run a chaotic (Gauss–Seidel, LIFO) descent of the clipped h-index
    # operator seeded at the touched endpoints.  The old coreness is a
    # pointwise upper bound on the post-delete coreness, the operator is
    # monotone, and every fixpoint below a sound upper bound equals the
    # coreness (the S_k witness argument), so the drained state is exact —
    # including multi-level cascades no single-edge theorem covers.
    top = 0
    for i in range(nops):
        if ops_kind[i] != 0:
            continue
        u = ops_u[i]
        v = ops_v[i]
        lo = indptr[u]
        hi = indptr[u + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            if indices[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo < indptr[u + 1] and indices[lo] == v:
            active[lo] = 0
        lo = indptr[v]
        hi = indptr[v + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            if indices[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        if lo < indptr[v + 1] and indices[lo] == u:
            active[lo] = 0
        if inq[u] == 0:
            inq[u] = 1
            stack[top] = u
            top += 1
        if inq[v] == 0:
            inq[v] = 1
            stack[top] = v
            top += 1
    while top > 0:
        top -= 1
        w = stack[top]
        inq[w] = 0
        cw = core[w]
        if cw <= 0:
            continue
        # Clipped h-index of the active neighbour core values: bucket-count
        # into [1, cw], then one descending scan (values beyond cw cannot
        # raise the result past the current upper bound).
        for j in range(indptr[w], indptr[w + 1]):
            if active[j] != 0:
                val = core[indices[j]]
                if val > cw:
                    val = cw
                if val > 0:
                    counts[val] += 1
        for j in range(xptr[w], xptr[w + 1]):
            if xactive[j] != 0:
                val = core[xindices[j]]
                if val > cw:
                    val = cw
                if val > 0:
                    counts[val] += 1
        h = 0
        acc = 0
        for x in range(cw, 0, -1):
            acc += counts[x]
            if acc >= x:
                h = x
                break
        for j in range(indptr[w], indptr[w + 1]):
            if active[j] != 0:
                val = core[indices[j]]
                if val > cw:
                    val = cw
                if val > 0:
                    counts[val] = 0
        for j in range(xptr[w], xptr[w + 1]):
            if xactive[j] != 0:
                val = core[xindices[j]]
                if val > cw:
                    val = cw
                if val > 0:
                    counts[val] = 0
        if h < cw:
            core[w] = h
            # A neighbour's h-index can only have dropped if its current
            # value sits in (h, cw]: thresholds <= h still see w, and w
            # never counted toward thresholds above its old value cw.
            for j in range(indptr[w], indptr[w + 1]):
                if active[j] != 0:
                    x2 = indices[j]
                    if core[x2] > h and core[x2] <= cw and inq[x2] == 0:
                        inq[x2] = 1
                        stack[top] = x2
                        top += 1
            for j in range(xptr[w], xptr[w + 1]):
                if xactive[j] != 0:
                    x2 = xindices[j]
                    if core[x2] > h and core[x2] <= cw and inq[x2] == 0:
                        inq[x2] = 1
                        stack[top] = x2
                        top += 1

    # Phase 2 — inserts, one at a time (simultaneous multi-insert inside a
    # subcore can under-raise): activate the edge's two extra arcs, then
    # the optimistic subcore peel of the subcore theorem, with op-stamped
    # scratch so nothing is re-zeroed between edges.
    for i in range(nops):
        if ops_kind[i] != 1:
            continue
        u = ops_u[i]
        v = ops_v[i]
        lo = xptr[u]
        hi = xptr[u + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            if xindices[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo < xptr[u + 1] and xindices[lo] == v:
            xactive[lo] = 1
        lo = xptr[v]
        hi = xptr[v + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            if xindices[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        if lo < xptr[v + 1] and xindices[lo] == u:
            xactive[lo] = 1
        cu = core[u]
        cv = core[v]
        level = cu if cu < cv else cv
        root = u if cu <= cv else v
        count = 0
        if core[root] == level:
            stamp[root] = i
            members[0] = root
            count = 1
            head = 0
            while head < count:
                w = members[head]
                head += 1
                for j in range(indptr[w], indptr[w + 1]):
                    if active[j] != 0:
                        x2 = indices[j]
                        if core[x2] == level and stamp[x2] != i:
                            stamp[x2] = i
                            members[count] = x2
                            count += 1
                            if count > limit:
                                return i
                for j in range(xptr[w], xptr[w + 1]):
                    if xactive[j] != 0:
                        x2 = xindices[j]
                        if core[x2] == level and stamp[x2] != i:
                            stamp[x2] = i
                            members[count] = x2
                            count += 1
                            if count > limit:
                                return i
        for t in range(count):
            w = members[t]
            s = 0
            for j in range(indptr[w], indptr[w + 1]):
                if active[j] != 0:
                    x2 = indices[j]
                    if core[x2] > level or stamp[x2] == i:
                        s += 1
            for j in range(xptr[w], xptr[w + 1]):
                if xactive[j] != 0:
                    x2 = xindices[j]
                    if core[x2] > level or stamp[x2] == i:
                        s += 1
            support[w] = s
        top = 0
        for t in range(count):
            if support[members[t]] <= level:
                stack[top] = members[t]
                top += 1
        while top > 0:
            top -= 1
            w = stack[top]
            if removed[w] == i:
                continue
            removed[w] = i
            for j in range(indptr[w], indptr[w + 1]):
                if active[j] != 0:
                    x2 = indices[j]
                    if stamp[x2] == i and removed[x2] != i:
                        support[x2] -= 1
                        # Push exactly at the crossing; members already at
                        # or below the level were pushed up front.
                        if support[x2] == level:
                            stack[top] = x2
                            top += 1
            for j in range(xptr[w], xptr[w + 1]):
                if xactive[j] != 0:
                    x2 = xindices[j]
                    if stamp[x2] == i and removed[x2] != i:
                        support[x2] -= 1
                        if support[x2] == level:
                            stack[top] = x2
                            top += 1
        for t in range(count):
            w = members[t]
            if removed[w] != i:
                core[w] = level + 1
    return nops
