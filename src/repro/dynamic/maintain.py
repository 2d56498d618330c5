"""Incremental core maintenance over CSR snapshots.

:func:`incremental_core_numbers` repairs a coreness array across a
:class:`~repro.dynamic.GraphDelta` instead of re-peeling the whole graph.
It rests on the subcore theorem (Sarıyüce et al., PVLDB 2013): one edge
update changes any coreness by at most 1, and only inside the *subcore* —
the vertices of coreness ``K = min(c(u), c(v))`` reachable from the
touched endpoints through vertices of coreness exactly ``K``.

A cost-model planner (:mod:`repro.dynamic.planner`) picks one of two
outcomes per delta:

* ``batched`` — one :meth:`~repro.kernels.base.KernelBackend.subcore_repair`
  kernel dispatch over raw arrays (old CSR + arc-active mask + a tiny
  extra CSR of inserted arcs): deletes are repaired all at once by an
  exact h-index descent, inserts are replayed per edge as optimistic
  subcore peels inside the loop.  It serves every delta size, from one
  edge up.
* ``rebuild`` — a full peel of the new snapshot via the kernel backend,
  forced when there is no baseline, when the delta is a large fraction of
  the graph, when an insert's subcore traversal blows past
  ``subcore_limit``, or when a compiled ``subcore_repair`` faults.

The outcome lands on ``dynamic.maintain{path,reason}``; the planner's
verdict (which may differ when a batched run bails to a rebuild) on
``dynamic.plan{choice,reason}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graph.csr import Graph
from ..kernels import get_backend
from .delta import GraphDelta
from .planner import delta_work, plan_maintenance, resolve_plan_override
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
        ``"batched"`` when one ``subcore_repair`` kernel dispatch
        repaired the baseline, ``"rebuild"`` when a full peel of the new
        snapshot ran.
    reason:
        ``"ok"`` for batched; for rebuilds one of
        ``"no_baseline"``, ``"large_delta"``, ``"subcore_limit"``,
        ``"kernel_fault"`` (the compiled repair raised; its arrays were
        discarded), ``"planner"`` (the cost model or an override chose
        the peel).
    changed:
        Sorted vertex ids whose coreness differs from the (zero-padded)
        baseline; every vertex when there was no baseline.
    """

    coreness: np.ndarray
    path: str
    reason: str
    changed: np.ndarray


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
    the result.  ``subcore_limit`` caps the vertices any single insert's
    subcore traversal may visit before bailing to a full peel (default
    ``max(256, n_new // 8)``; deletes walk no subcore).  ``plan``
    forces an outcome (``batched``/``rebuild``; ``auto``/``None`` defers
    to the cost model).

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
        work=delta_work(delta.insert, len(delta.delete), old_graph.degrees()),
    )
    obs.add("dynamic.plan", choice=decision.choice, reason=decision.reason)

    if decision.choice == "rebuild":
        reason = decision.reason if decision.reason in ("no_baseline", "large_delta") else "planner"
        return _rebuild(old_graph, old_coreness, delta, new_graph, backend, reason)

    core, reason = _batched_repair(old_graph, old_coreness, delta, backend, n_new, subcore_limit)
    if core is None:
        return _rebuild(old_graph, old_coreness, delta, new_graph, backend, reason)
    changed = _changed_vertices(core, old_coreness, n_new)
    obs.add("dynamic.maintain", path="batched", reason="ok")
    return MaintainResult(core, "batched", "ok", changed)


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
) -> tuple[np.ndarray | None, str]:
    """One ``subcore_repair`` kernel dispatch over the whole delta.

    Builds the kernel's two-part working adjacency without any O(m) CSR
    merge: the old snapshot's arrays plus a fresh all-ones arc mask, and
    an extra CSR holding only the delta's inserted arcs (initially
    inactive — each insert op activates its own arcs as it is replayed).
    Returns ``(coreness, "ok")``, or ``(None, reason)`` when the kernel
    bailed on ``subcore_limit`` or faulted (``kernel_fault``); the partial
    arrays are discarded.
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
    if applied < 0:
        return None, "kernel_fault"
    if applied < len(ops_u):
        return None, "subcore_limit"
    return core, "ok"


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
