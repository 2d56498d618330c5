"""Traversal-style incremental core maintenance over CSR snapshots.

:func:`incremental_core_numbers` repairs a coreness array across a
:class:`~repro.dynamic.GraphDelta` instead of re-peeling the whole graph.
It rests on the subcore theorem (Sarıyüce et al., PVLDB 2013): one edge
update changes any coreness by at most 1, and only inside the *subcore* —
the vertices of coreness ``K = min(c(u), c(v))`` reachable from the
touched endpoints through vertices of coreness exactly ``K``.  Each edge
of the delta is therefore a local peel:

* insert — optimistic: a member rises to ``K + 1`` only if more than
  ``K`` of its neighbours already sit above ``K`` or are fellow members;
  peeling members whose optimistic support is ``<= K`` leaves the risers.
* delete — pessimistic: members whose support (neighbours of coreness
  ``>= K``) drops below ``K`` fall to ``K - 1``, cascading.

The per-edge walk is one of three strategies a cost-model planner
(:mod:`repro.dynamic.planner`) chooses between per delta:

* ``edge`` — the walk above over a copy-on-write python overlay on the
  old snapshot's CSR (only rows the delta edits are promoted to sets);
  zero setup, interpreted per-arc cost, ideal for one or two edges.
* ``batched`` — one :meth:`~repro.kernels.base.KernelBackend.subcore_repair`
  kernel dispatch: the same repairs over raw arrays (old CSR + arc-active
  mask + a tiny extra CSR of inserted arcs), with deletes repaired all at
  once by an exact h-index descent and inserts replayed per edge inside
  the compiled loop.  Fixed setup, native per-arc cost — the medium-delta
  path.
* ``rebuild`` — a full peel of the new snapshot via the kernel backend,
  forced when there is no baseline, when the delta is a large fraction of
  the graph, or when a subcore traversal blows past ``subcore_limit``.

The strategy taken lands on ``dynamic.maintain{path,reason}``; the
planner's verdict (which may differ when a batched run bails to a
rebuild) on ``dynamic.plan{choice,reason}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graph.csr import Graph
from ..kernels import get_backend
from .delta import GraphDelta
from .planner import plan_maintenance, resolve_plan_override
from .versioned import VersionedGraph

__all__ = ["MaintainResult", "incremental_core_numbers"]


@dataclass(frozen=True)
class MaintainResult:
    """Outcome of one maintenance call.

    Attributes
    ----------
    coreness:
        int64 coreness array for the *new* snapshot (length = new n).
    path:
        ``"incremental"`` when the per-edge subcore walk repaired the
        baseline, ``"batched"`` when one ``subcore_repair`` kernel
        dispatch did, ``"rebuild"`` when a full peel of the new snapshot
        ran.
    reason:
        ``"ok"`` for incremental/batched; for rebuilds one of
        ``"no_baseline"``, ``"large_delta"``, ``"subcore_limit"``,
        ``"planner"`` (the cost model or an override chose the peel).
    changed:
        Sorted vertex ids whose coreness differs from the (zero-padded)
        baseline; every vertex when there was no baseline.
    """

    coreness: np.ndarray
    path: str
    reason: str
    changed: np.ndarray


class _SubcoreLimit(Exception):
    """Internal: a subcore traversal exceeded the configured budget."""


class _OverlayAdjacency:
    """Copy-on-write adjacency: CSR reads with per-row set overlays."""

    def __init__(self, graph: Graph, n_new: int):
        self._graph = graph
        self._n_old = graph.num_vertices
        self._rows: dict[int, set[int]] = {}
        self.n = n_new

    def neighbors(self, v: int):
        row = self._rows.get(v)
        if row is not None:
            return row
        if v < self._n_old:
            return self._graph.neighbors(v)
        return ()

    def edit(self, v: int) -> set[int]:
        row = self._rows.get(v)
        if row is None:
            if v < self._n_old:
                row = set(map(int, self._graph.neighbors(v)))
            else:
                row = set()
            self._rows[v] = row
        return row


def incremental_core_numbers(
    old_graph: Graph,
    old_coreness: np.ndarray | None,
    delta: GraphDelta,
    *,
    new_graph: Graph | None = None,
    backend: str | None = None,
    subcore_limit: int | None = None,
    plan: str | None = None,
) -> MaintainResult:
    """Coreness of ``old_graph`` + ``delta``, repaired locally when possible.

    ``delta`` must be *effective* relative to ``old_graph`` (every insert
    absent, every delete present) — exactly what
    :meth:`VersionedGraph.effective_delta` / :meth:`VersionedGraph.apply`
    produce.  ``new_graph`` may pass the already-built next snapshot to
    spare the rebuild path a second CSR merge; it is also used to size
    the result.  ``subcore_limit`` caps the vertices any single subcore
    traversal may visit before bailing to a full peel (default
    ``max(256, n_new // 8)``).  ``plan`` forces a strategy
    (``edge``/``batched``/``rebuild``; ``auto``/``None`` defers to the
    cost model, after the ``REPRO_DYNAMIC_PLAN`` environment override).

    Every call lands one observation on the
    ``dynamic.maintain_seconds{path=}`` histogram, labelled by the path
    actually taken (which may differ from the planner's choice when a
    repair bails to a rebuild).
    """
    start = time.perf_counter()
    result = _incremental_core_numbers(
        old_graph, old_coreness, delta, new_graph=new_graph, backend=backend,
        subcore_limit=subcore_limit, plan=plan,
    )
    obs.observe(
        "dynamic.maintain_seconds", time.perf_counter() - start, path=result.path
    )
    return result


def _incremental_core_numbers(
    old_graph: Graph,
    old_coreness: np.ndarray | None,
    delta: GraphDelta,
    *,
    new_graph: Graph | None = None,
    backend: str | None = None,
    subcore_limit: int | None = None,
    plan: str | None = None,
) -> MaintainResult:
    n_new = delta.min_num_vertices(old_graph.num_vertices) if new_graph is None else new_graph.num_vertices
    if subcore_limit is None:
        subcore_limit = max(256, n_new // 8)
    m_new = (
        new_graph.num_edges if new_graph is not None
        else old_graph.num_edges + len(delta.insert) - len(delta.delete)
    )

    decision = plan_maintenance(
        delta.num_changes, m_new,
        backend_name=get_backend(backend).name,
        override=resolve_plan_override(plan),
        has_baseline=old_coreness is not None,
    )
    obs.add("dynamic.plan", choice=decision.choice, reason=decision.reason)

    if decision.choice == "rebuild":
        reason = decision.reason if decision.reason in ("no_baseline", "large_delta") else "planner"
        return _rebuild(old_graph, old_coreness, delta, new_graph, backend, reason)

    if decision.choice == "batched":
        core = _batched_repair(old_graph, old_coreness, delta, backend, n_new, subcore_limit)
        if core is None:
            return _rebuild(old_graph, old_coreness, delta, new_graph, backend, "subcore_limit")
        changed = _changed_vertices(core, old_coreness, n_new)
        obs.add("dynamic.maintain", path="batched", reason="ok")
        return MaintainResult(core, "batched", "ok", changed)

    core = np.zeros(n_new, dtype=np.int64)
    core[: len(old_coreness)] = old_coreness
    adj = _OverlayAdjacency(old_graph, n_new)
    try:
        # Deletes first, then inserts: the two effective sets are disjoint
        # and validated against the old snapshot, so this order is always
        # applicable edge by edge.
        for u, v in delta.delete:
            _remove_edge(adj, core, int(u), int(v), subcore_limit)
        for u, v in delta.insert:
            _insert_edge(adj, core, int(u), int(v), subcore_limit)
    except _SubcoreLimit:
        return _rebuild(old_graph, old_coreness, delta, new_graph, backend, "subcore_limit")

    changed = _changed_vertices(core, old_coreness, n_new)
    obs.add("dynamic.maintain", path="incremental", reason="ok")
    return MaintainResult(core, "incremental", "ok", changed)


def _changed_vertices(core: np.ndarray, old_coreness: np.ndarray, n_new: int) -> np.ndarray:
    baseline = np.zeros(n_new, dtype=np.int64)
    baseline[: len(old_coreness)] = old_coreness
    return np.flatnonzero(core != baseline)


def _batched_repair(
    old_graph: Graph,
    old_coreness: np.ndarray,
    delta: GraphDelta,
    backend: str | None,
    n_new: int,
    subcore_limit: int,
) -> np.ndarray | None:
    """One ``subcore_repair`` kernel dispatch over the whole delta.

    Builds the kernel's two-part working adjacency without any O(m) CSR
    merge: the old snapshot's arrays plus a fresh all-ones arc mask, and
    an extra CSR holding only the delta's inserted arcs (initially
    inactive — each insert op activates its own arcs as it is replayed).
    Returns the repaired coreness, or ``None`` when the kernel bailed on
    ``subcore_limit`` (the partial arrays are discarded).
    """
    indptr = old_graph.indptr
    n_old = old_graph.num_vertices
    if n_new > n_old:
        pad = np.full(n_new - n_old, indptr[-1] if len(indptr) else 0, dtype=np.int64)
        indptr = np.concatenate([indptr, pad])
    core = np.zeros(n_new, dtype=np.int64)
    core[: len(old_coreness)] = old_coreness

    insert, delete = delta.insert, delta.delete
    if len(insert):
        ends = np.concatenate([insert[:, 0], insert[:, 1]])
        nbrs = np.concatenate([insert[:, 1], insert[:, 0]])
        order = np.lexsort((nbrs, ends))
        xindices = np.ascontiguousarray(nbrs[order])
        xptr = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n_new), out=xptr[1:])
        # Replay inserts lowest starting k-level first: low-level subcores
        # are the small ones, and early repairs can only raise later roots.
        levels = np.minimum(core[insert[:, 0]], core[insert[:, 1]])
        insert = insert[np.argsort(levels, kind="stable")]
    else:
        xindices = np.empty(0, dtype=np.int64)
        xptr = np.zeros(n_new + 1, dtype=np.int64)

    active = np.ones(len(old_graph.indices), dtype=np.uint8)
    xactive = np.zeros(len(xindices), dtype=np.uint8)
    ops_u = np.ascontiguousarray(np.concatenate([delete[:, 0], insert[:, 0]]))
    ops_v = np.ascontiguousarray(np.concatenate([delete[:, 1], insert[:, 1]]))
    ops_kind = np.concatenate([
        np.zeros(len(delete), dtype=np.int64), np.ones(len(insert), dtype=np.int64),
    ])
    applied = get_backend(backend).subcore_repair(
        indptr, old_graph.indices, active, xptr, xindices, xactive,
        core, ops_u, ops_v, ops_kind, np.int64(subcore_limit),
    )
    if int(applied) < len(ops_u):
        return None
    return core


# ----------------------------------------------------------------------
# Per-edge subcore repairs over the copy-on-write CSR overlay.
# ----------------------------------------------------------------------

def _subcore(adj: _OverlayAdjacency, core: np.ndarray, root: int, level: int, limit: int) -> set[int]:
    """Vertices of coreness ``level`` reachable from ``root`` through
    vertices of coreness ``level``; raises :class:`_SubcoreLimit` past
    ``limit`` visited vertices."""
    if core[root] != level:
        return set()
    seen = {root}
    stack = [root]
    while stack:
        w = stack.pop()
        for x in adj.neighbors(w):
            x = int(x)
            if core[x] == level and x not in seen:
                seen.add(x)
                if len(seen) > limit:
                    raise _SubcoreLimit
                stack.append(x)
    return seen


def _insert_edge(adj: _OverlayAdjacency, core: np.ndarray, u: int, v: int, limit: int) -> None:
    adj.edit(u).add(v)
    adj.edit(v).add(u)
    level = int(min(core[u], core[v]))
    root = u if core[u] <= core[v] else v
    members = _subcore(adj, core, root, level, limit)
    support = {
        w: sum(1 for x in adj.neighbors(w) if core[int(x)] > level or int(x) in members)
        for w in members
    }
    stack = [w for w in members if support[w] <= level]
    alive = set(members)
    while stack:
        w = stack.pop()
        if w not in alive:
            continue
        alive.discard(w)
        for x in adj.neighbors(w):
            x = int(x)
            if x in alive and core[x] == level:
                support[x] -= 1
                if support[x] <= level:
                    stack.append(x)
    for w in alive:
        core[w] = level + 1


def _remove_edge(adj: _OverlayAdjacency, core: np.ndarray, u: int, v: int, limit: int) -> None:
    level = int(min(core[u], core[v]))
    adj.edit(u).discard(v)
    adj.edit(v).discard(u)
    if level == 0:
        return
    members: set[int] = set()
    for endpoint in (u, v):
        if core[endpoint] == level and endpoint not in members:
            members |= _subcore(adj, core, endpoint, level, limit)
    if not members:
        return
    support = {
        w: sum(1 for x in adj.neighbors(w) if core[int(x)] >= level)
        for w in members
    }
    stack = [w for w in members if support[w] < level]
    dropped: set[int] = set()
    while stack:
        w = stack.pop()
        if w in dropped:
            continue
        dropped.add(w)
        for x in adj.neighbors(w):
            x = int(x)
            if x in members and x not in dropped:
                support[x] -= 1
                if support[x] < level:
                    stack.append(x)
    for w in dropped:
        core[w] = level - 1


# ----------------------------------------------------------------------

def _rebuild(
    old_graph: Graph,
    old_coreness: np.ndarray | None,
    delta: GraphDelta,
    new_graph: Graph | None,
    backend: str | None,
    reason: str,
) -> MaintainResult:
    """Full peel of the new snapshot via the kernel backend."""
    if new_graph is None:
        new_graph = VersionedGraph(old_graph).apply(delta).graph
    if new_graph.num_vertices == 0:
        core = np.empty(0, dtype=np.int64)
    else:
        core = np.asarray(get_backend(backend).peel_coreness(new_graph), dtype=np.int64)
    if old_coreness is None:
        changed = np.arange(new_graph.num_vertices, dtype=np.int64)
    else:
        baseline = np.zeros(new_graph.num_vertices, dtype=np.int64)
        baseline[: min(len(old_coreness), len(baseline))] = old_coreness[: len(baseline)]
        changed = np.flatnonzero(core != baseline)
    obs.add("dynamic.maintain", path="rebuild", reason=reason)
    return MaintainResult(core, "rebuild", reason, changed)
