#!/usr/bin/env python
"""Benchmark the native backend against the python and numpy backends.

Times the four hot-path kernels the ``native`` backend runs as compiled
C — ``peel_coreness``, ``hindex_fixpoint``, ``triangle_charges`` and
``triplet_charges`` — plus ``count_triangles`` and
``connected_components``, which native delegates to numpy, under all
three registered backends on a suite of synthetic generator graphs, the
largest of which has ~500k edges.  Results are written as JSON
with one row per ``(kernel, backend, dataset)``::

    {"kernel": ..., "backend": ..., "dataset": ..., "n": ..., "m": ...,
     "seconds": ...}

Warm numbers are what the rows report: the native backend's first call
per kernel — which includes building or loading the C library — is timed
separately into the ``first_call`` section, so compile latency never
pollutes the steady-state comparison.  Every backend's answer is asserted
bit-identical before any timing is trusted.

Two acceptance gates, enforced in full mode and skipped under ``--quick``;
the script exits non-zero when either fails:

* ``native_vs_numpy`` — on the largest dataset, the native backend must
  beat numpy by >= 3x on at least one of ``peel_coreness`` /
  ``triangle_charges``;
* ``numpy_vs_python`` — on the largest dataset the python backend runs,
  numpy's vectorised ``triangle_charges`` must beat the scalar loop by
  >= 4x.

Both outcomes are recorded under the report's ``gates`` key.

The pure-python backend is capped to datasets with at most
``PYTHON_MAX_EDGES`` edges — the scalar loops would take minutes at 500k
edges — and every skipped (kernel, dataset) cell is logged and recorded in
the report, never dropped silently.

Usage::

    PYTHONPATH=src python benchmarks/bench_native.py            # full suite
    PYTHONPATH=src python benchmarks/bench_native.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_native.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from _machine import machine_metadata
from repro import obs
from repro.core import order_vertices
from repro.generators.random_graphs import powerlaw_chung_lu
from repro.generators.smallworld import watts_strogatz
from repro.kernels import get_backend

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_native.json"

BACKENDS = ("python", "numpy", "native")

#: The python backend only runs on datasets with at most this many edges;
#: its scalar loops would take minutes per repeat at 500k edges.
PYTHON_MAX_EDGES = 120_000

#: name -> zero-argument factory; ordered by ascending size.  The last
#: entry is the ~500k-edge graph the acceptance gate is measured on.
SUITE = {
    "cl-10k": lambda: powerlaw_chung_lu(4_000, 5.0, 2.3, seed=7),
    "cl-100k": lambda: powerlaw_chung_lu(20_000, 10.0, 2.3, seed=7),
    "ws-100k": lambda: watts_strogatz(25_000, 4, 0.1, seed=7),
    "ws-500k": lambda: watts_strogatz(125_000, 4, 0.1, seed=7),
    "cl-500k": lambda: powerlaw_chung_lu(100_000, 10.0, 2.3, seed=7),
}
QUICK_SUITE = ("cl-10k",)

#: Kernels whose native-vs-numpy speedup on the largest dataset satisfies
#: the native gate.
GATE_KERNELS = ("peel_coreness", "triangle_charges")
GATE_SPEEDUP = 3.0

#: The vectorised-charges gate: numpy over python on ``triangle_charges``,
#: on the largest dataset the python backend runs.
CHARGES_GATE_SPEEDUP = 4.0


class DatasetInputs:
    """Every kernel's inputs, built once per dataset and shared across backends."""

    def __init__(self, graph):
        self.graph = graph
        n, m = graph.num_vertices, graph.num_edges
        self.estimate = graph.degrees().astype(np.int64)
        self.vertices = np.arange(n, dtype=np.int64)
        self.ordering = order_vertices(graph)
        self.active = np.ones(n, dtype=bool)


#: kernel name -> callable(backend, inputs) running exactly one kernel pass.
KERNELS = {
    "peel_coreness": lambda kb, d: kb.peel_coreness(d.graph),
    "hindex_fixpoint": lambda kb, d: kb.hindex_fixpoint(d.graph, d.estimate, d.vertices),
    "triangle_charges": lambda kb, d: kb.triangle_charges(d.ordering),
    "triplet_charges": lambda kb, d: kb.triplet_charges(d.ordering),
    "count_triangles": lambda kb, d: kb.count_triangles(d.graph),
    "connected_components": lambda kb, d: kb.connected_components(d.graph, d.active),
}


def time_kernel(run, repeats: int) -> tuple[object, float]:
    """``(first result, best-of-repeats wall seconds)`` of one kernel call."""
    result = None
    best = float("inf")
    for i in range(repeats):
        start = time.perf_counter()
        out = run()
        best = min(best, time.perf_counter() - start)
        if i == 0:
            result = out
    return result, best


def _identical(a, b) -> bool:
    """Bit-identity of two kernel results (tuples compared field by field)."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_identical, a, b))
    return np.array_equal(np.asarray(a), np.asarray(b))


def assert_equivalent(kernel: str, dataset: str, results: dict) -> None:
    """Fail loudly if any backend disagrees with the python/numpy reference."""
    names = [b for b in BACKENDS if b in results]
    reference = results[names[0]]
    for name in names[1:]:
        if not _identical(results[name], reference):
            raise AssertionError(
                f"{kernel} on {dataset}: backend {name!r} disagrees with {names[0]!r}"
            )


def measure_first_calls(dataset_names: tuple[str, ...]) -> dict:
    """Time the native backend's first call per kernel (includes the C build).

    Uses the smallest dataset so the number is dominated by compilation,
    not graph work.  Must run before the warm timing loops.
    """
    inputs = DatasetInputs(SUITE[dataset_names[0]]())
    native = get_backend("native")
    first = {}
    for kernel, call in KERNELS.items():
        start = time.perf_counter()
        call(native, inputs)
        first[kernel] = time.perf_counter() - start
    return first


def run_benchmarks(dataset_names: tuple[str, ...], repeats: int) -> dict:
    rows = []
    skipped = []
    for name in dataset_names:
        inputs = DatasetInputs(SUITE[name]())
        n, m = inputs.graph.num_vertices, inputs.graph.num_edges
        print(f"[{name}] n={n} m={m}", flush=True)
        for kernel, call in KERNELS.items():
            results = {}
            for backend_name in BACKENDS:
                if backend_name == "python" and m > PYTHON_MAX_EDGES:
                    skipped.append({"kernel": kernel, "dataset": name, "backend": backend_name})
                    print(
                        f"  {kernel:22s} {backend_name:7s}    skipped "
                        f"(m={m} > PYTHON_MAX_EDGES={PYTHON_MAX_EDGES})",
                        flush=True,
                    )
                    continue
                backend = get_backend(backend_name)
                result, seconds = time_kernel(lambda: call(backend, inputs), repeats)
                results[backend_name] = result
                rows.append(
                    {
                        "kernel": kernel,
                        "backend": backend_name,
                        "dataset": name,
                        "n": n,
                        "m": m,
                        "seconds": seconds,
                    }
                )
                print(f"  {kernel:22s} {backend_name:7s} {seconds * 1e3:10.2f} ms", flush=True)
            assert_equivalent(kernel, name, results)

    by_key = {(r["kernel"], r["backend"], r["dataset"]): r["seconds"] for r in rows}
    speedups: dict[str, dict[str, dict[str, float]]] = {}
    for kernel in KERNELS:
        speedups[kernel] = {}
        for name in dataset_names:
            cell = {}
            py = by_key.get((kernel, "python", name))
            vec = by_key.get((kernel, "numpy", name))
            nat = by_key.get((kernel, "native", name))
            if py and vec:
                cell["numpy_vs_python"] = round(py / vec, 2)
            if py and nat:
                cell["native_vs_python"] = round(py / nat, 2)
            if vec and nat:
                cell["native_vs_numpy"] = round(vec / nat, 2)
            if cell:
                speedups[kernel][name] = cell
    return {"rows": rows, "speedups": speedups, "python_skipped": skipped}


def check_gates(report: dict, largest: str) -> dict:
    """Both bench gates, each ``{"dataset", "speedups", "target", "passed"}``.

    ``native_vs_numpy``: native >= 3x numpy on peel or charges, on the
    largest graph.  ``numpy_vs_python``: numpy >= 4x python on
    ``triangle_charges``, on the largest graph the python backend ran.
    """
    native = {
        kernel: report["speedups"][kernel][largest]["native_vs_numpy"]
        for kernel in GATE_KERNELS
    }
    python_rows = [r for r in report["rows"] if r["backend"] == "python"]
    python_largest = max(python_rows, key=lambda r: r["m"])["dataset"]
    charges = report["speedups"]["triangle_charges"][python_largest]["numpy_vs_python"]
    gates = {
        "native_vs_numpy": {
            "dataset": largest,
            "speedups": native,
            "target": GATE_SPEEDUP,
            "passed": any(ratio >= GATE_SPEEDUP for ratio in native.values()),
        },
        "numpy_vs_python": {
            "dataset": python_largest,
            "speedups": {"triangle_charges": charges},
            "target": CHARGES_GATE_SPEEDUP,
            "passed": charges >= CHARGES_GATE_SPEEDUP,
        },
    }
    for name, gate in gates.items():
        for kernel, ratio in gate["speedups"].items():
            print(f"gate {name}: {kernel} on {gate['dataset']}: {ratio}x "
                  f"(target {gate['target']}x)")
        if not gate["passed"]:
            print(f"GATE FAILED: {name} below {gate['target']}x on {gate['dataset']}")
    return gates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest dataset only, one repeat, no gates (CI smoke test)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per kernel (best-of)"
    )
    parser.add_argument(
        "-o", "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    # Counters feed the metadata's kernel_dispatch attribution block.
    obs.enable()

    from repro.kernels.native_backend import native_runtime_metadata

    names = QUICK_SUITE if args.quick else tuple(SUITE)
    repeats = 1 if args.quick else args.repeats

    first_call = measure_first_calls(names)
    print("native first-call (includes the C build):")
    for kernel, seconds in first_call.items():
        print(f"  {kernel:22s} {seconds * 1e3:10.2f} ms")

    report = run_benchmarks(names, repeats)
    report["first_call"] = {
        "note": "native backend first dispatch per kernel; includes building "
        "or loading the C library, measured on the smallest dataset",
        "dataset": names[0],
        "seconds": first_call,
    }
    report["output"] = {
        "quick": args.quick,
        "repeats": repeats,
        "python_max_edges": PYTHON_MAX_EDGES,
    }
    report["gates"] = None if args.quick else check_gates(report, names[-1])
    report["native_runtime"] = native_runtime_metadata(resolve=True)
    report["metadata"] = machine_metadata(get_backend().name)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    if args.quick:
        return 0
    return 0 if all(gate["passed"] for gate in report["gates"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
