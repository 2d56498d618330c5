"""Cost-model selection of the maintenance outcome for one delta.

:func:`incremental_core_numbers` has two ways to produce the next
epoch's coreness, with very different cost shapes:

``batched``
    One :meth:`~repro.kernels.base.KernelBackend.subcore_repair` kernel
    dispatch over raw CSR arrays — pays a fixed setup (an arc-active
    mask over the old CSR plus a tiny extra CSR of inserted arcs), then
    repairs each change at compiled-loop speed.
``rebuild``
    A cold ``peel_coreness`` of the new snapshot — O(m), independent of
    the delta size, and the only option without a baseline.

:func:`plan_maintenance` picks between them from a measured cost model:
each candidate's cost is estimated as ``fixed + size * seconds_per_unit``.
A rebuild's size is the new snapshot's arc count.  A repair's size is the
delta's *work* (:func:`delta_work`): one unit per delete, plus the lower
endpoint degree of each insert.  An insert's subcore traversal grows with
the degree of the vertices it joins, so on power-law graphs an edge
between hubs (what a real edge stream re-adds) costs an order of
magnitude more than one between two leaves (what uniformly random pairs
make); the per-change cost hardly depends on the graph's size.  The
coefficients are fitted by ``benchmarks/bench_dynamic.py`` over both
kinds of delta (the fit is recorded in ``BENCH_dynamic.json``).

The choice is observable on the ``dynamic.plan{choice=,reason=}``
counter and overridable through the ``plan=`` argument (CLI ``--plan``),
which accepts ``auto``/``batched``/``rebuild``.  Overrides skip the
large-delta guard (the caller asked for that path), but never the
no-baseline guard: repairing nothing is not an option.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PLAN_CHOICES",
    "MaintenancePlan",
    "delta_work",
    "plan_maintenance",
    "resolve_plan_override",
]

#: Accepted plan names (``auto`` defers to the cost model).
PLAN_CHOICES = ("auto", "batched", "rebuild")

# Measured coefficients (seconds), fitted to the batched and full-peel
# medians of benchmarks/bench_dynamic.py on cl-100k, cl-500k and cl-250k
# with uniform and held-out deltas (see the "fit" block of
# BENCH_dynamic.json).  Batched repair costs 1.3-4.6 us per work unit on
# native across those rows, and 33-71 us on numpy; the figures below sit
# near the top of each range, so a misprediction falls on the side of the
# rebuild, whose O(m) cost is bounded.
_BATCHED_FIXED_SECONDS = 2.5e-4      # op arrays + extra-CSR assembly
_BATCHED_SETUP_SECONDS_PER_ARC = 2e-9   # arc-active mask + scratch
_BATCHED_SECONDS_PER_UNIT = {"native": 4.5e-6, "numpy": 5e-5, "python": 3e-4}
#: Arc scans one work unit stands for (4.5 us at ~4 ns a scan): no change
#: scans more arcs than the graph has, which caps the work on small graphs.
_ARCS_PER_UNIT = 1000
_REBUILD_FIXED_SECONDS = 5e-4        # peel dispatch + numpy's round overhead
_REBUILD_SECONDS_PER_ARC = {"native": 2e-8, "numpy": 5e-8, "python": 1.2e-6}


@dataclass(frozen=True)
class MaintenancePlan:
    """The planner's verdict for one delta.

    ``choice`` is ``batched``/``rebuild``; ``reason`` is
    ``cost_model`` (the estimates decided), ``override`` (the caller
    forced the choice), ``no_baseline`` or ``large_delta``
    (guards forced a rebuild).  ``estimates`` holds the modelled seconds
    per candidate, for diagnostics and ``bestk stats``.
    """

    choice: str
    reason: str
    estimates: dict[str, float] = field(default_factory=dict)


def resolve_plan_override(explicit: str | None = None) -> str | None:
    """Normalise a ``plan=`` argument to a forced outcome.

    Returns ``None`` when the plan is left to the cost model (``None`` or
    ``auto``).  An unknown value raises :class:`ValueError`.
    """
    if explicit is None:
        return None
    value = explicit.strip().lower()
    if value not in PLAN_CHOICES:
        raise ValueError(
            f"unknown maintenance plan {explicit!r}; expected one of {PLAN_CHOICES}"
        )
    return None if value == "auto" else value


def delta_work(insert: np.ndarray, num_deletes: int, degrees: np.ndarray) -> int:
    """Work units of a repair: one per delete, plus, per inserted edge,
    the lower of its endpoints' degrees in the old snapshot (at least 1;
    a vertex the delta creates has degree 0).  ``insert`` is ``(k, 2)``."""
    ends = np.asarray(insert, dtype=np.int64).reshape(-1, 2)
    deg = np.zeros(ends.shape, dtype=np.int64)
    known = ends < len(degrees)
    deg[known] = degrees[ends[known]]
    return int(num_deletes) + int(np.maximum(deg.min(axis=1), 1).sum())


def cost_estimates(
    num_changes: int, num_edges: int, backend_name: str, work: float | None = None
) -> dict[str, float]:
    """Modelled seconds per outcome for a ``num_changes``-edge delta of
    ``work`` units (:func:`delta_work`; one per change when omitted)."""
    arcs = 2 * num_edges
    work = num_changes if work is None else min(work, num_changes * arcs / _ARCS_PER_UNIT)
    batched_per_unit = _BATCHED_SECONDS_PER_UNIT.get(backend_name, _BATCHED_SECONDS_PER_UNIT["numpy"])
    rebuild_per_arc = _REBUILD_SECONDS_PER_ARC.get(backend_name, _REBUILD_SECONDS_PER_ARC["numpy"])
    return {
        "batched": (
            _BATCHED_FIXED_SECONDS
            + arcs * _BATCHED_SETUP_SECONDS_PER_ARC
            + work * batched_per_unit
        ),
        "rebuild": _REBUILD_FIXED_SECONDS + arcs * rebuild_per_arc,
    }


def plan_maintenance(
    num_changes: int,
    num_edges: int,
    *,
    backend_name: str = "numpy",
    override: str | None = None,
    has_baseline: bool = True,
    work: float | None = None,
) -> MaintenancePlan:
    """Choose the maintenance outcome for one delta.

    ``num_edges`` is the *new* snapshot's edge count (the quantity the
    rebuild pays for); ``work`` the delta's :func:`delta_work` (one unit
    per change when omitted); ``override`` is a pre-resolved plan name
    from :func:`resolve_plan_override` or ``None`` for the cost model.
    """
    estimates = cost_estimates(num_changes, num_edges, backend_name, work)
    if not has_baseline:
        return MaintenancePlan("rebuild", "no_baseline", estimates)
    if override is not None:
        return MaintenancePlan(override, "override", estimates)
    if num_changes > max(4, num_edges // 4):
        return MaintenancePlan("rebuild", "large_delta", estimates)
    choice = min(estimates, key=estimates.get)
    return MaintenancePlan(choice, "cost_model", estimates)
