"""Timing utilities and run records for the experiment harness.

The paper's Figures 7/8 split each algorithm's runtime into *core
decomposition*, *index building* and *score computation*; :class:`RunRecord`
keeps that breakdown.  The paper also reports that the baseline "cannot
finish within 10^5 seconds" on the largest datasets for clustering
coefficient — :class:`TimeBudget` emulates that by estimating a run's work
upfront and declaring a *DNF* (did not finish) instead of melting the
machine.  The DNF threshold scales with ``REPRO_BENCH_DNF_OPS``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "Timer",
    "time_call",
    "RunRecord",
    "TimeBudget",
    "execution_metadata",
    "kernel_dispatch_summary",
    "format_seconds",
]


def execution_metadata(
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    cache_state: str | None = None,
    obs_summary: dict | None = None,
) -> dict:
    """Parallel/cache execution facts stamped into every ``BENCH_*.json``.

    A benchmark number is only interpretable next to the worker count and
    cache state that produced it: a warm-cache or 8-worker run is not
    comparable to a cold serial one.  Records the worker count, the
    artifact-cache directory (argument or ``REPRO_CACHE_DIR``) and the
    cache temperature — ``"off"`` without a cache, else the caller's
    ``cache_state`` (``"cold"`` / ``"warm"``), or ``"unknown"`` when the
    caller did not track it.  An ``obs`` block carries the compact
    :func:`repro.obs.summary` of the run so far — span and counter totals
    that say what the benchmark *actually did* (kernel dispatches per
    backend, pool vs serial maps, store hits) rather than what its knobs
    requested.  The ``kernel_dispatch`` block folds the same counters into
    explicit per-backend per-kernel counts (plus the native backend's
    per-reason fallback counts), so every bench row is attributable to the
    backend whose code *actually ran*, not merely the one selected.

    ``obs_summary`` lets a caller pass a summary snapshotted *earlier* —
    benchmarks that ``obs.reset()`` between runs must capture the summary
    before the reset, or the stamped block records the empty recorder
    instead of the run it claims to describe.
    """
    from .. import obs

    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip() or None
    if cache_state is None:
        cache_state = "off" if cache_dir is None else "unknown"
    return {
        "jobs": jobs,
        "cpu_count": os.cpu_count() or 1,
        "cache_dir": None if cache_dir is None else str(cache_dir),
        "cache_state": cache_state,
        "kernel_dispatch": kernel_dispatch_summary(),
        "obs": obs.summary() if obs_summary is None else obs_summary,
    }


def kernel_dispatch_summary() -> dict:
    """Per-backend per-kernel dispatch counts from the obs counters.

    Returns ``{"dispatch": {backend: {kernel: count}}, "native_fallback":
    {kernel: {reason: count}}}`` — the attribution record stamped into
    every ``BENCH_*.json``: which backend's code handled each kernel call,
    and where (and why) the native backend degraded to numpy.
    """
    from .. import obs

    dispatch: dict[str, dict[str, int]] = {}
    fallback: dict[str, dict[str, int]] = {}
    for key, value in obs.counters().items():
        name, labels = obs.parse_counter_key(key)
        tags = dict(labels)
        if name == "kernel.dispatch":
            backend = tags.get("backend", "?")
            dispatch.setdefault(backend, {})[tags.get("kernel", "?")] = int(value)
        elif name == "kernel.native_fallback":
            kernel = tags.get("kernel", "?")
            fallback.setdefault(kernel, {})[tags.get("reason", "?")] = int(value)
    return {"dispatch": dispatch, "native_fallback": fallback}


class Timer:
    """A tiny perf_counter stopwatch usable as a context manager."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


def time_call(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` and return ``(result, wall seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@dataclass
class RunRecord:
    """One timed experiment run with the paper's phase breakdown."""

    label: str
    #: Phase name -> seconds; e.g. decomposition / index / score.
    phases: dict[str, float] = field(default_factory=dict)
    #: Set when the run was skipped by the time budget.
    dnf: bool = False

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def add(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def render_total(self) -> str:
        return "DNF" if self.dnf else format_seconds(self.total)


class TimeBudget:
    """Upfront work estimator that emulates the paper's DNF rows.

    A run is skipped when its *estimated elementary operations* exceed the
    budget.  The default budget corresponds to a few minutes of pure-Python
    work; override with the ``REPRO_BENCH_DNF_OPS`` environment variable
    (set it very high to force every baseline to run).
    """

    #: Roughly 8 s of pure-Python baseline work at the calibrated cost of
    #: ~2.5e-8 s per estimated operation.
    DEFAULT_OPS = 3.0e8

    def __init__(self, max_ops: float | None = None):
        if max_ops is None:
            try:
                max_ops = float(os.environ.get("REPRO_BENCH_DNF_OPS", self.DEFAULT_OPS))
            except ValueError:
                max_ops = self.DEFAULT_OPS
        self.max_ops = max_ops

    def allows(self, estimated_ops: float) -> bool:
        """Whether a run with this much estimated work may proceed."""
        return estimated_ops <= self.max_ops

    #: Measured cost ratio of a triangle-counting pass vs a vectorised
    #: edge-count pass over the same edges (see EXPERIMENTS.md).
    TRIANGLE_COST_FACTOR = 150.0

    @staticmethod
    def baseline_set_ops(num_edges: int, kmax: int, *, triangles: bool) -> float:
        """Estimated work of the per-k from-scratch baseline (Section III-A)."""
        per_k = num_edges * (TimeBudget.TRIANGLE_COST_FACTOR if triangles else 1.0)
        return (kmax + 1) * per_k

    @staticmethod
    def baseline_core_ops(num_edges: int, num_cores: int, kmax: int, *, triangles: bool) -> float:
        """Estimated work of the per-core baseline (Section IV-B)."""
        # Cores at the same level are disjoint, so one level costs at most
        # one whole-graph scan: the bound matches the per-k baseline.
        return TimeBudget.baseline_set_ops(num_edges, kmax, triangles=triangles)


def format_seconds(seconds: float) -> str:
    """Human scale matching the paper's log axis (1ms ... 10^5 s)."""
    if seconds < 0:
        raise ValueError("negative duration")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 100.0:
        return f"{seconds:.2f}s"
    return f"{seconds:.0f}s"
