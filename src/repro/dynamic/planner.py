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
each candidate's cost is estimated as ``fixed + work * seconds_per_arc``
with coefficients calibrated on the reference ~500k-edge Chung–Lu graph
by ``benchmarks/bench_dynamic.py`` (the bench records the measured
crossover next to the model in ``BENCH_dynamic.json``).  The estimated
work unit is the *affected-region arc count*: measured subcore
traversals on the calibration graph scan about ``m / 280`` arcs per
changed edge, floored at 64 for small graphs.

The choice is observable on the ``dynamic.plan{choice=,reason=}``
counter and overridable through the ``plan=`` argument (CLI ``--plan``),
which accepts ``auto``/``batched``/``rebuild``.  Overrides skip the
large-delta guard (the caller asked for that path), but never the
no-baseline guard: repairing nothing is not an option.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "PLAN_CHOICES",
    "MaintenancePlan",
    "estimated_region_arcs",
    "plan_maintenance",
    "resolve_plan_override",
]

#: Accepted plan names (``auto`` defers to the cost model).
PLAN_CHOICES = ("auto", "batched", "rebuild")

# Measured coefficients (seconds), calibrated against the cl-500k rows
# of benchmarks/bench_dynamic.py (native backend; see BENCH_dynamic.json
# for the raw medians).  Region arcs are walked once per pass; the
# per-arc figures fold the pass count in.  The fit reproduces the
# measured batched -> rebuild crossover near ~3.6k changes on the
# ~500k-edge graph.
_BATCHED_FIXED_SECONDS = 2.5e-4      # op arrays + extra-CSR assembly
_BATCHED_SETUP_SECONDS_PER_ARC = 2e-9   # arc-active mask + scratch
_BATCHED_SECONDS_PER_ARC = {"native": 3e-9, "numpy": 2.5e-7, "python": 2.5e-6}
_REBUILD_FIXED_SECONDS = 3e-4        # peel dispatch + round overhead
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


def estimated_region_arcs(num_edges: int) -> int:
    """Modelled adjacency arcs a single change's repair traverses."""
    return int(min(2 * num_edges, max(64, num_edges // 280)))


def cost_estimates(num_changes: int, num_edges: int, backend_name: str) -> dict[str, float]:
    """Modelled seconds per outcome for a ``num_changes``-edge delta."""
    region = estimated_region_arcs(num_edges)
    arcs = 2 * num_edges
    batched_per_arc = _BATCHED_SECONDS_PER_ARC.get(backend_name, _BATCHED_SECONDS_PER_ARC["numpy"])
    rebuild_per_arc = _REBUILD_SECONDS_PER_ARC.get(backend_name, _REBUILD_SECONDS_PER_ARC["numpy"])
    return {
        "batched": (
            _BATCHED_FIXED_SECONDS
            + arcs * _BATCHED_SETUP_SECONDS_PER_ARC
            + num_changes * region * batched_per_arc
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
) -> MaintenancePlan:
    """Choose the maintenance outcome for one delta.

    ``num_edges`` is the *new* snapshot's edge count (the quantity the
    rebuild pays for); ``override`` is a pre-resolved plan name from
    :func:`resolve_plan_override` or ``None`` for the cost model.
    """
    estimates = cost_estimates(num_changes, num_edges, backend_name)
    if not has_baseline:
        return MaintenancePlan("rebuild", "no_baseline", estimates)
    if override is not None:
        return MaintenancePlan(override, "override", estimates)
    if num_changes > max(4, num_edges // 4):
        return MaintenancePlan("rebuild", "large_delta", estimates)
    choice = min(estimates, key=estimates.get)
    return MaintenancePlan(choice, "cost_model", estimates)
