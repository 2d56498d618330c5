"""``repro.scenarios`` — the closed-loop self-measurement harness.

Three pieces, one loop:

* :mod:`~repro.scenarios.registry` — named, fully pinned benchmark
  scenarios (generator x family x metric x backend x jobs x cache x
  delta stream) with a built-in catalogue sweeping the package's
  execution axes.
* :mod:`~repro.scenarios.runner` — executes each scenario under a fresh
  recorder, asserts bit-identity against the python reference, and emits
  one schema-versioned record carrying wall times, latency-histogram
  percentiles, counters and execution metadata.
* :mod:`~repro.scenarios.sentinel` — compares a fresh sweep against a
  committed baseline (``benchmarks/baselines/scenarios.json``) with a
  noise-aware min-of-N comparator, and fails loudly on structural drift
  (missing scenarios, unverified answers, schema mismatch).

The CLI front end is ``bestk bench {list,run,compare,update-baseline}``.

Layering: this package sits *above* the engine/index/obs stack — it may
import anything below it, but no family, kernel, or engine module may
import it back (``scripts/check_imports.py`` enforces both directions).
"""

from __future__ import annotations

from .registry import (
    GENERATORS,
    Scenario,
    available_scenarios,
    get_scenario,
    iter_scenarios,
    register_scenario,
)
from .runner import SCHEMA_VERSION, run_scenario, run_suite
from .sentinel import (
    ABS_FLOOR_SECONDS,
    REL_THRESHOLD,
    Comparison,
    ComparisonReport,
    baseline_from_results,
    compare_results,
)

__all__ = [
    "ABS_FLOOR_SECONDS",
    "GENERATORS",
    "REL_THRESHOLD",
    "SCHEMA_VERSION",
    "Comparison",
    "ComparisonReport",
    "Scenario",
    "available_scenarios",
    "baseline_from_results",
    "compare_results",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "run_scenario",
    "run_suite",
]
