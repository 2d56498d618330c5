"""Timing primitives: the host calibration probes, timing series and spans.

Raw wall-clock medians on a shared 2-vCPU host differ by 20-40% between
runs of the same code.  Every timing sample is therefore reported twice:
raw, and host-normalised by calibration probes taken around it.  A probe
is fixed work that slows down with the host, never with the program.

The host does not slow all work alike: when it is loaded, pure-python work
on dicts, sets and heaps slows by up to 2.2x while an interpreter loop
plus numpy array passes slows by up to 1.7x.  So each probe reads two
kinds of fixed work:

* ``numeric``: an interpreter loop plus numpy ``sort``/``cumsum``/``unique``
  on a fixed 400k-element array;
* ``objects``: a dict of 6000 tuple keys, a heap pushed and drained
  through them and a set emptied by them.

A series is normalised by a blend of the two set by its ``objects`` share
``w``: a sample ``t`` is reported as ``t * (N_n / p_n) ** (1 - w) *
(N_o / p_o) ** w``, where ``p_n``/``p_o`` are the means of the two probes
of each kind that bracket the sample and ``N_n``/``N_o`` their readings on
the quiet host (``CALIB_NOMINAL_MS``).  A slowdown that hits both kinds
alike is removed whatever ``w`` is.
"""

from __future__ import annotations

import heapq
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Calibration probe readings of the reference host (2 vCPUs, Python 3.11,
#: numpy 2.4) when quiet, taken before the first recorded runs.  Fixed:
#: changing one rescales every number normalised by it, so they are never
#: re-fitted.
CALIB_NOMINAL_MS = {"numeric": 43.5, "objects": 22.8}


class HostClock:
    """Calibration probes plus named timing series bracketed by them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.random(400_000)
        self._keys = [tuple(pair) for pair in rng.integers(0, 1 << 20, (6000, 2)).tolist()]
        self._rounds = {"numeric": self._numeric_round, "objects": self._objects_round}
        self.probes_ms: dict[str, list[float]] = {kind: [] for kind in CALIB_NOMINAL_MS}
        self._series: dict[str, list[tuple[float, int, str]]] = {}
        # The first rounds in a fresh process read up to 1.5x slow, which
        # would under-scale the first set-up; they are run and discarded.
        for round_ in self._rounds.values():
            for _ in range(3):
                round_()

    def _numeric_round(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i & 7
        np.sort(self._array)
        np.cumsum(self._array)
        np.unique(self._array)
        return time.perf_counter() - start

    def _objects_round(self) -> float:
        start = time.perf_counter()
        table = {key: i for i, key in enumerate(self._keys)}
        heap: list = []
        for key, i in table.items():
            heapq.heappush(heap, (key[1] ^ i, key))
        live = set(table)
        while heap:
            live.discard(heapq.heappop(heap)[1])
        return time.perf_counter() - start

    def probe(self) -> None:
        """Run both fixed calibration workloads and keep their readings.

        Each reading is five times the median of five rounds (about 9 ms a
        round for ``numeric``, 5 ms for ``objects``), so one preempted round
        does not move it.  A sixth round runs first and is discarded: right
        after a request it pays the page faults of memory the request just
        freed, and reads up to twice as slow.
        """
        for kind, round_ in self._rounds.items():
            round_()
            self.probes_ms[kind].append(5 * statistics.median(round_() for _ in range(5)) * 1e3)

    @property
    def slot(self) -> int:
        """Index of the last probe taken."""
        return len(self.probes_ms["numeric"]) - 1

    def record(self, name: str, seconds: float, objects_share: float) -> None:
        """Add one raw sample to series ``name``, normalised with ``objects_share``."""
        if self.slot < 0:
            raise RuntimeError("probe() must run before the first sample")
        self._series.setdefault(name, []).append((seconds, self.slot, objects_share))

    def raw(self, name: str) -> list[float]:
        return [s for s, _, _ in self._series.get(name, [])]

    def normalised(self, name: str) -> list[float]:
        """Samples of ``name`` scaled by the mean of their bracketing probes.

        The probe after a sample is the next one taken; the caller takes a
        final probe once the timed loop ends, so every sample has one.
        """
        return [s * self.scale(slot, w) for s, slot, w in self._series.get(name, [])]

    def scale(self, slot: int, objects_share: float) -> float:
        """Normalising factor for work done between probes ``slot`` and ``slot + 1``."""
        factor = 1.0
        for kind, weight in (("numeric", 1 - objects_share), ("objects", objects_share)):
            probes = self.probes_ms[kind]
            after = probes[slot + 1] if slot + 1 < len(probes) else probes[slot]
            factor *= (CALIB_NOMINAL_MS[kind] / ((probes[slot] + after) / 2)) ** weight
        return factor

    def host_summary(self) -> dict:
        summary = {}
        for kind, probes in self.probes_ms.items():
            med = statistics.median(probes)
            summary[kind] = {
                "calib_nominal_ms": CALIB_NOMINAL_MS[kind],
                "calib_ms": med,
                "drift_frac": (max(probes) - min(probes)) / med,
                "probes_ms": probes,
            }
        return summary


class Tracer:
    """Benchmark-owned spans around public calls, kept in memory.

    A span opened with no span open is a root; every span carries its
    root's id as the request id.  Spans are sequential within a process,
    so a span's self time is its duration minus its children's durations.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[tuple[int, int]] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the block; yields the span id."""
        sid = self._next_id
        self._next_id += 1
        parent, request = self._stack[-1] if self._stack else (None, sid)
        self._stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": sid,
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent,
                "request": request,
                "workload": self.workload,
                **({"attrs": attrs} if attrs else {}),
            })


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default
