#!/usr/bin/env python
"""Benchmark the parallel prebuild and the persistent artifact cache.

Two independent comparisons per synthetic dataset, both against the plain
serial in-memory :class:`repro.index.BestKIndex`:

* **parallel** — :meth:`BestKIndex.prebuild` over the core + truss
  families (triangle passes included) at 1, 2 and 4 workers.  Each
  worker task carries the pickled graph (:mod:`repro.index.worker`); the
  serial run (``jobs=1``) is the baseline of the speedup column.
* **store** — the same all-metrics query load answered three times:
  without a store, against a *cold* on-disk cache (builds everything,
  persists as it goes), then again from scratch against the now-*warm*
  cache (memory-maps the bundles instead of rebuilding).

Every configuration's answers are asserted equal to the serial in-memory
ones — the layers are pure performance knobs.

Results are written as JSON::

    {"datasets": [{"dataset": ..., "parallel": {"runs": [...], ...},
                   "store": {"cold": {...}, "warm": {...}, ...}}, ...],
     "acceptance": {...}, "metadata": {...}}

Acceptance bars (largest dataset of a full run): prebuild speedup >= 2x
at 4 workers — only meaningful (and only enforced) when the machine has
at least 4 CPUs — and warm-cache build time < 10% of the cold build.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full suite
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from _machine import machine_metadata
from repro.bench.harness import execution_metadata
from repro.core import PAPER_METRICS
from repro.index import BestKIndex
from repro.generators.random_graphs import powerlaw_chung_lu
from repro.generators.rmat import rmat_graph
from repro.generators.smallworld import watts_strogatz
from repro.kernels import get_backend

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: name -> zero-argument factory, ascending size; the last entry is the
#: "largest synthetic graph" of the acceptance bars.
SUITE = {
    "cl-30k": lambda: powerlaw_chung_lu(8_000, 8.0, 2.3, seed=7),
    "ws-60k": lambda: watts_strogatz(15_000, 4, 0.1, seed=7),
    "rmat-120k": lambda: rmat_graph(14, 120_000, seed=7),
    "cl-200k": lambda: powerlaw_chung_lu(40_000, 8.0, 2.3, seed=7),
}
SMOKE_SUITE = {
    "cl-1k": lambda: powerlaw_chung_lu(500, 4.0, 2.3, seed=7),
    "rmat-2k": lambda: rmat_graph(9, 2_000, seed=7),
}

#: Families the prebuild fans out over; ``ecc``'s recursive min-cut
#: decomposition would dominate without saying anything about the layers.
FAMILIES = ("core", "truss")
WORKER_COUNTS = (1, 2, 4)


def _answers(index: BestKIndex) -> dict:
    """The full query load; returns comparable (k, score) answers."""
    out = {}
    for metric, result in index.best_set_all_metrics(PAPER_METRICS).items():
        out[("set", metric)] = (result.k, result.score)
    for metric, result in index.best_core_all_metrics(PAPER_METRICS).items():
        out[("core", metric)] = (result.k, result.score)
    for metric, result in index.best_level_all_metrics("truss").items():
        out[("truss", metric)] = (result.k, result.score)
    return out


def _assert_same(name: str, label: str, baseline: dict, candidate: dict) -> None:
    assert baseline.keys() == candidate.keys(), f"{name}/{label}: query sets differ"
    for key in baseline:
        assert baseline[key] == candidate[key], (
            f"{name}/{label}: answer mismatch on {key}: "
            f"{baseline[key]} != {candidate[key]}"
        )


def bench_parallel(name: str, graph, backend, baseline_answers: dict) -> dict:
    """Prebuild wall time at 1/2/4 workers, answers asserted identical."""
    runs = []
    serial_seconds = None
    for jobs in WORKER_COUNTS:
        index = BestKIndex(graph, backend=backend, jobs=jobs, store=False)
        start = time.perf_counter()
        index.prebuild(FAMILIES, problem2=True, jobs=jobs)
        prebuild_seconds = time.perf_counter() - start
        _assert_same(name, f"jobs={jobs}", baseline_answers, _answers(index))
        if jobs == 1:
            serial_seconds = prebuild_seconds
        runs.append({
            "jobs": jobs,
            "prebuild_seconds": round(prebuild_seconds, 6),
            "speedup_vs_serial": round(serial_seconds / max(prebuild_seconds, 1e-9), 2),
            "execution": execution_metadata(jobs=jobs, cache_dir=None),
        })
        print(
            f"  prebuild jobs={jobs}  {prebuild_seconds * 1e3:9.1f} ms   "
            f"speedup {runs[-1]['speedup_vs_serial']:5.2f}x",
            flush=True,
        )
    return {"families": list(FAMILIES), "runs": runs, "identical": True}


def bench_store(name: str, graph, backend, baseline_answers: dict) -> dict:
    """Cold-vs-warm disk cache on the same query load, answers identical."""
    cache_dir = tempfile.mkdtemp(prefix="bestk-bench-cache-")
    try:
        cold_index = BestKIndex(graph, backend=backend, store=cache_dir)
        start = time.perf_counter()
        cold_answers = _answers(cold_index)
        cold_total = time.perf_counter() - start
        _assert_same(name, "store-cold", baseline_answers, cold_answers)

        warm_index = BestKIndex(graph, backend=backend, store=cache_dir)
        start = time.perf_counter()
        warm_answers = _answers(warm_index)
        warm_total = time.perf_counter() - start
        _assert_same(name, "store-warm", baseline_answers, warm_answers)

        cold_build = cold_index.total_build_seconds()
        warm_build = warm_index.total_build_seconds()
        row = {
            "cache_bytes": sum(
                f.stat().st_size
                for f in pathlib.Path(cache_dir).rglob("*") if f.is_file()
            ),
            "cold": {
                "total_seconds": round(cold_total, 6),
                "build_seconds": round(cold_build, 6),
                "hydrate_seconds": round(cold_index.hydrate_seconds, 6),
                "execution": execution_metadata(cache_dir=cache_dir, cache_state="cold"),
            },
            "warm": {
                "total_seconds": round(warm_total, 6),
                "build_seconds": round(warm_build, 6),
                "hydrate_seconds": round(warm_index.hydrate_seconds, 6),
                "execution": execution_metadata(cache_dir=cache_dir, cache_state="warm"),
            },
            "warm_build_fraction": round(warm_build / max(cold_build, 1e-9), 4),
            "total_speedup": round(cold_total / max(warm_total, 1e-9), 2),
            "identical": True,
        }
        print(
            f"  store cold {cold_total * 1e3:9.1f} ms (build {cold_build * 1e3:.1f} ms)   "
            f"warm {warm_total * 1e3:9.1f} ms (build {warm_build * 1e3:.1f} ms, "
            f"{row['warm_build_fraction'] * 100:.1f}% of cold)",
            flush=True,
        )
        return row
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench_dataset(name: str, graph, backend) -> dict:
    n, m = graph.num_vertices, graph.num_edges
    print(f"[{name}] n={n} m={m}", flush=True)
    baseline = BestKIndex(graph, backend=backend, jobs=1, store=False)
    baseline_answers = _answers(baseline)
    return {
        "dataset": name,
        "n": n,
        "m": m,
        "queries": len(baseline_answers),
        "parallel": bench_parallel(name, graph, backend, baseline_answers),
        "store": bench_store(name, graph, backend, baseline_answers),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graphs only (CI smoke test; acceptance bars not enforced)",
    )
    parser.add_argument(
        "-o", "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    backend = get_backend()
    suite = SMOKE_SUITE if args.smoke else SUITE
    rows = [bench_dataset(name, factory(), backend) for name, factory in suite.items()]

    largest = rows[-1]
    cpu_count = os.cpu_count() or 1
    four_worker = next(
        (r for r in largest["parallel"]["runs"] if r["jobs"] == 4), None
    )
    acceptance = {
        "largest_dataset": largest["dataset"],
        "cpu_count": cpu_count,
        "parallel_speedup_at_4": None if four_worker is None
        else four_worker["speedup_vs_serial"],
        "parallel_target": 2.0,
        # A 2x-at-4-workers bar is unfalsifiable on a <4-core box: there is
        # no parallel hardware for the fan-out to use.  Record the number,
        # enforce only where it means something.
        "parallel_enforceable": cpu_count >= 4,
        "warm_build_fraction": largest["store"]["warm_build_fraction"],
        "warm_build_target": 0.10,
        "identical": all(
            r["parallel"]["identical"] and r["store"]["identical"] for r in rows
        ),
        "enforced": not args.smoke,
    }
    report = {
        "datasets": rows,
        "acceptance": acceptance,
        "metadata": machine_metadata(backend.name),
        "output": {"smoke": args.smoke},
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    print(
        f"{largest['dataset']}: prebuild speedup at 4 workers "
        f"{acceptance['parallel_speedup_at_4']}x (target {acceptance['parallel_target']}x, "
        f"{'enforced' if acceptance['parallel_enforceable'] else f'not enforceable on {cpu_count} CPU(s)'}), "
        f"warm build {acceptance['warm_build_fraction'] * 100:.1f}% of cold "
        f"(target < {acceptance['warm_build_target'] * 100:.0f}%)"
    )
    if not args.smoke:
        ok = acceptance["warm_build_fraction"] < acceptance["warm_build_target"]
        if acceptance["parallel_enforceable"]:
            ok = ok and acceptance["parallel_speedup_at_4"] >= acceptance["parallel_target"]
        if not ok:
            print("acceptance bars NOT met", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
