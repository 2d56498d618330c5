#!/usr/bin/env python
"""Benchmark the shared :class:`repro.index.BestKIndex` against cold calls.

For each synthetic dataset the script answers **both** best-k problems for
all six paper metrics two ways:

* **cold** — one independent call per (problem, metric): every call builds
  its own decomposition, ordering, forest and (for the triangle metric)
  charging pass, exactly like the pre-index entry points;
* **warm** — one :class:`BestKIndex` serving the same twelve queries via
  the batch APIs, so every artifact is built at most once.

Both sides produce bit-identical answers (checked).  The report also times
the triangle-charging kernel under the scalar ``python`` backend vs the
vectorised ``numpy`` backend (bit-identity checked there too).

Since the hierarchy-engine refactor the same cold-vs-warm comparison runs
per registered family (``core``, ``truss``, ``weighted``; ``ecc`` is
excluded because its recursive min-cut decomposition is cubic-ish and
would dominate the report): each family's batch metrics are answered by
fresh per-metric indexes and by one shared index, so BENCH_index.json
tracks the warm-index speedup for every family, not just k-core.

Results are written as JSON::

    {"datasets": [{"dataset": ..., "cold_seconds": ..., "warm_seconds": ...,
                   "speedup": ..., "cold_phases": {...}, "warm_phases": {...},
                   "triangle_kernel": {"python_seconds": ..., "numpy_seconds": ...,
                                       "speedup": ..., "identical": true}}, ...],
     "acceptance": {...}, "metadata": {...}}

Acceptance bars (checked on the largest dataset of a full run): warm-index
all-metrics >= 3x faster than the cold calls, numpy triangle charging
>= 4x faster than the scalar loop.

Usage::

    PYTHONPATH=src python benchmarks/bench_index.py            # full suite
    PYTHONPATH=src python benchmarks/bench_index.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_index.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from _machine import machine_metadata
from repro.core import PAPER_METRICS, best_kcore_set, best_single_kcore
from repro.engine import get_family
from repro.index import BestKIndex
from repro.generators.random_graphs import powerlaw_chung_lu
from repro.generators.rmat import rmat_graph
from repro.generators.smallworld import watts_strogatz
from repro.kernels import get_backend

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_index.json"

#: name -> zero-argument factory, ascending size; the last entry is the
#: "largest synthetic graph" of the acceptance bar.
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


def _phases(index: BestKIndex) -> dict[str, float]:
    return {k: round(v, 6) for k, v in index.phase_seconds().items()}


def _merge_phases(total: dict[str, float], one: dict[str, float]) -> None:
    for key, value in one.items():
        total[key] = total.get(key, 0.0) + value


#: Families covered by the per-family cold/warm section.  ``ecc`` is
#: excluded: its recursive min-cut decomposition is cubic-ish and would
#: dominate the report without saying anything about the index.
BENCH_FAMILIES = ("core", "truss", "weighted")


def bench_family(name: str, graph, backend, family_name: str, seed: int = 7) -> dict:
    """Cold (fresh index per metric) vs warm (one shared index) per family."""
    fam = get_family(family_name)
    params = {}
    if fam.name == "weighted":
        rng = np.random.default_rng(seed)
        params = {"edge_weights": rng.lognormal(sigma=0.75, size=graph.num_edges)}
    metrics = fam.batch_metrics

    cold_answers = {}
    start = time.perf_counter()
    for metric in metrics:
        fresh = BestKIndex(graph, backend=backend)
        result = fresh.best_level(fam, metric, **params)
        cold_answers[metric] = (result.k, result.score)
    cold_total = time.perf_counter() - start

    index = BestKIndex(graph, backend=backend)
    start = time.perf_counter()
    warm_results = index.best_level_all_metrics(fam, **params)
    warm_total = time.perf_counter() - start

    for metric in metrics:
        warm = warm_results[fam.resolve_metric(metric).name]
        assert cold_answers[metric] == (warm.k, warm.score), (
            f"cold/warm mismatch on {name}/{fam.name}/{metric}"
        )

    row = {
        "family": fam.name,
        "metrics": len(metrics),
        "cold_seconds": round(cold_total, 6),
        "warm_seconds": round(warm_total, 6),
        "speedup": round(cold_total / max(warm_total, 1e-9), 2),
        "warm_phases": {
            k: round(v, 6) for k, v in index.phase_seconds(fam.name).items()
        },
    }
    print(
        f"  family {fam.name:9s} cold {cold_total * 1e3:9.1f} ms   "
        f"warm {warm_total * 1e3:9.1f} ms   speedup {row['speedup']:5.1f}x",
        flush=True,
    )
    return row


def bench_dataset(name: str, graph, backend) -> dict:
    n, m = graph.num_vertices, graph.num_edges
    print(f"[{name}] n={n} m={m}", flush=True)

    # Cold: a fresh index per call reproduces the from-scratch entry points
    # (same arithmetic, nothing carried over between calls) while exposing
    # the per-phase build split.
    cold_phases: dict[str, float] = {}
    cold_answers = {}
    start = time.perf_counter()
    for metric in PAPER_METRICS:
        fresh = BestKIndex(graph, backend=backend)
        result = best_kcore_set(graph, metric, index=fresh)
        cold_answers[("set", metric)] = (result.k, result.score)
        _merge_phases(cold_phases, fresh.phase_seconds())
    for metric in PAPER_METRICS:
        fresh = BestKIndex(graph, backend=backend)
        result = best_single_kcore(graph, metric, index=fresh)
        cold_answers[("core", metric)] = (result.k, result.score)
        _merge_phases(cold_phases, fresh.phase_seconds())
    cold_total = time.perf_counter() - start
    cold_phases["score"] = max(cold_total - sum(cold_phases.values()), 0.0)

    # Warm: one shared index answers the same twelve queries.
    index = BestKIndex(graph, backend=backend)
    start = time.perf_counter()
    best_sets = index.best_set_all_metrics(PAPER_METRICS)
    best_cores = index.best_core_all_metrics(PAPER_METRICS)
    warm_total = time.perf_counter() - start
    warm_phases = _phases(index)
    warm_phases["score"] = round(max(warm_total - index.total_build_seconds(), 0.0), 6)

    for metric in PAPER_METRICS:
        assert cold_answers[("set", metric)] == (
            best_sets[metric].k, best_sets[metric].score,
        ), f"cold/warm set mismatch on {name}/{metric}"
        assert cold_answers[("core", metric)] == (
            best_cores[metric].k, best_cores[metric].score,
        ), f"cold/warm core mismatch on {name}/{metric}"

    # Triangle-charging kernel: scalar reference vs vectorised (best-of-3
    # to dampen single-shot jitter), bit-identical.
    ordered = index.artifact("core", "ordering")
    py, np_ = get_backend("python"), get_backend("numpy")
    py_seconds = np_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        charges_py = py.triangle_charges(ordered)
        py_seconds = min(py_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        charges_np = np_.triangle_charges(ordered)
        np_seconds = min(np_seconds, time.perf_counter() - start)
    identical = bool(np.array_equal(charges_py, charges_np))
    assert identical, f"triangle_charges backends disagree on {name}"

    row = {
        "dataset": name,
        "n": n,
        "m": m,
        "queries": 2 * len(PAPER_METRICS),
        "cold_seconds": round(cold_total, 6),
        "warm_seconds": round(warm_total, 6),
        "speedup": round(cold_total / max(warm_total, 1e-9), 2),
        "cold_phases": {k: round(v, 6) for k, v in cold_phases.items()},
        "warm_phases": warm_phases,
        "triangle_kernel": {
            "python_seconds": round(py_seconds, 6),
            "numpy_seconds": round(np_seconds, 6),
            "speedup": round(py_seconds / max(np_seconds, 1e-9), 2),
            "identical": identical,
        },
        "families": [
            bench_family(name, graph, backend, family) for family in BENCH_FAMILIES
        ],
    }
    print(
        f"  cold {cold_total * 1e3:9.1f} ms   warm {warm_total * 1e3:9.1f} ms   "
        f"index speedup {row['speedup']:5.1f}x   "
        f"triangle kernel {row['triangle_kernel']['speedup']:5.1f}x",
        flush=True,
    )
    return row


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
    acceptance = {
        "largest_dataset": largest["dataset"],
        "warm_vs_cold_speedup": largest["speedup"],
        "warm_vs_cold_target": 3.0,
        "triangle_kernel_speedup": largest["triangle_kernel"]["speedup"],
        "triangle_kernel_target": 4.0,
        "backends_identical": all(r["triangle_kernel"]["identical"] for r in rows),
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
        f"{largest['dataset']}: warm-index speedup {acceptance['warm_vs_cold_speedup']}x "
        f"(target {acceptance['warm_vs_cold_target']}x), triangle kernel "
        f"{acceptance['triangle_kernel_speedup']}x (target {acceptance['triangle_kernel_target']}x)"
    )
    if not args.smoke:
        ok = (
            acceptance["warm_vs_cold_speedup"] >= acceptance["warm_vs_cold_target"]
            and acceptance["triangle_kernel_speedup"] >= acceptance["triangle_kernel_target"]
        )
        if not ok:
            print("acceptance bars NOT met", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
