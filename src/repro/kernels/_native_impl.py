"""Loop-shaped python twins of three native C kernels.

Each function here is a tight integer loop over raw CSR arrays (no Graph
or LevelOrdering objects, allocations limited to ``np.zeros``/``np.full``)
that the C unit of :mod:`repro.kernels._native_cc` translates statement
for statement.  Because they are plain python, the equivalence suite runs
them *uncompiled* next to the compiled kernels, and the ``python``
backend serves ``subcore_repair`` from here.  The C kernels without a
loop twin here mirror :func:`repro.kernels.common.exact_peel` or a
backend method instead; each C function names its reference.

``triangle_charges(indptr, indices, nbr_rank, high) -> charges``
    Algorithm 3 charging by merge-intersection of higher-rank suffixes.
``triplet_charges(indptr, indices, same) -> charges``
    Algorithm 3's per-vertex triplet charges: one pass over every row's
    lower-level prefix.
``subcore_repair(indptr, indices, active, xptr, xindices, xactive, core,
ops_u, ops_v, ops_kind, limit) -> applied``
    Batched incremental core maintenance over a masked two-part adjacency
    (old CSR + arc-active mask, plus a tiny "extra" CSR of the delta's
    inserted arcs).  Deletes are repaired by an exact chaotic h-index
    descent from the old coreness (any fixpoint of the h-index operator
    below a sound upper bound *is* the coreness); inserts are replayed
    one edge at a time as optimistic subcore peels.
    ``core`` / ``active`` / ``xactive`` are mutated in place; the return
    value is the number of ops applied — anything short of ``len(ops_u)``
    means an insert's subcore traversal blew past ``limit`` and the caller
    must discard the arrays and fall back to a full peel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["subcore_repair", "triangle_charges", "triplet_charges"]


def triangle_charges(indptr, indices, nbr_rank, high):
    n = indptr.shape[0] - 1
    charges = np.zeros(n, dtype=np.int64)
    for v in range(n):
        a = indptr[v] + high[v]
        b = indptr[v + 1]
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
            count = np.int64(0)
            while p < b and q < d:
                x = nbr_rank[p]
                y = nbr_rank[q]
                if x < y:
                    p += 1
                elif y < x:
                    q += 1
                else:
                    count += 1
                    p += 1
                    q += 1
            charges[v] += count
    return charges


def triplet_charges(indptr, indices, same):
    n = indptr.shape[0] - 1
    charges = np.zeros(n, dtype=np.int64)
    for x in range(n):
        a = indptr[x]
        b = indptr[x + 1]
        ge = (b - a) - same[x]
        charges[x] += ge * (ge - 1) // 2
        # Each lower-level neighbour is the lowest-rank leg of one
        # triplet centred at x per arc after it in the rank-sorted row.
        for j in range(a, a + same[x]):
            charges[indices[j]] += b - j - 1
    return charges


def subcore_repair(indptr, indices, active, xptr, xindices, xactive, core,
                   ops_u, ops_v, ops_kind, limit):
    n = indptr.shape[0] - 1
    nops = ops_u.shape[0]
    stamp = np.full(n, -1, dtype=np.int64)
    removed = np.full(n, -1, dtype=np.int64)
    support = np.zeros(n, dtype=np.int64)
    members = np.zeros(n, dtype=np.int64)
    stack = np.zeros(n, dtype=np.int64)
    inq = np.zeros(n, dtype=np.uint8)
    max_deg = np.int64(0)
    for v in range(n):
        d = (indptr[v + 1] - indptr[v]) + (xptr[v + 1] - xptr[v])
        if d > max_deg:
            max_deg = d
    counts = np.zeros(max_deg + 2, dtype=np.int64)

    # Phase 1 — deletes, all at once.  Deactivate every deleted arc, then
    # run a chaotic (Gauss–Seidel, LIFO) descent of the clipped h-index
    # operator seeded at the touched endpoints.  The old coreness is a
    # pointwise upper bound on the post-delete coreness, the operator is
    # monotone, and every fixpoint below a sound upper bound equals the
    # coreness (the S_k witness argument), so the drained state is exact —
    # including multi-level cascades no single-edge theorem covers.
    top = np.int64(0)
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
        h = np.int64(0)
        acc = np.int64(0)
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
        count = np.int64(0)
        if core[root] == level:
            stamp[root] = i
            members[0] = root
            count = np.int64(1)
            head = np.int64(0)
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
            s = np.int64(0)
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
        top = np.int64(0)
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
