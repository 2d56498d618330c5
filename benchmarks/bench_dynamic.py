#!/usr/bin/env python
"""Benchmark incremental core maintenance against full rebuilds.

Streams insert/delete deltas of increasing size through
:class:`repro.dynamic.VersionedGraph` on the 100k–500k-edge generator
graphs, in two kinds:

* ``uniform`` — inserts join uniformly random vertex pairs (on a
  power-law graph, nearly always two low-degree vertices);
* ``held-out`` — inserts re-add edges held out of the generated graph,
  so their endpoints follow the graph's own degree distribution, as in a
  real edge stream (and in the end-to-end churn workload).

Deletes remove random present edges in both.  Per delta it times:

* ``apply_seconds`` — the localized CSR rebuild producing the next
  epoch's snapshot;
* ``batched_seconds`` — :func:`repro.dynamic.incremental_core_numbers`
  forced through one ``subcore_repair`` kernel dispatch
  (``plan="batched"``);
* ``full_seconds`` — a from-scratch ``peel_coreness`` on the new
  snapshot (what a non-incremental index would pay).

Every repaired coreness is asserted bit-identical to the full peel
before its timing is trusted.  Each row also records the delta's
``work`` (:func:`repro.dynamic.planner.delta_work`) and
``planner_choice``: what the cost model would pick unforced, so
planner drift shows up in the report diff.  A ``fit`` block gives the
coefficients the planner's model implies per backend and kind (seconds
per batched work unit, seconds per rebuilt arc) and the share of rows
where the planner's choice ran within 1.25x of the better path.  The
``dynamic.maintain`` path counts are stamped into the report through
:func:`repro.bench.harness.execution_metadata`'s obs summary plus an
explicit ``maintain_paths`` block, and a ``crossover`` block records the
interpolated delta size where the batched repair stops beating the full
peel.

The acceptance gates (enforced in full mode, skipped under ``--quick``),
all on the largest dataset's uniform deltas:

* single-edge deltas must maintain (batched) >= ``GATE_SPEEDUP``x
  faster than the full rebuild;
* batched repair must beat the full peel >= ``GATE_BATCHED_100``x at
  100-edge deltas and >= ``GATE_BATCHED_1000``x at 1000-edge deltas.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py            # full suite
    PYTHONPATH=src python benchmarks/bench_dynamic.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_dynamic.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from _machine import machine_metadata
from repro import obs
from repro.dynamic import GraphDelta, VersionedGraph, incremental_core_numbers, plan_maintenance
from repro.dynamic import planner
from repro.generators.random_graphs import powerlaw_chung_lu
from repro.graph.csr import Graph
from repro.kernels import get_backend

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_dynamic.json"

#: name -> zero-argument factory; ordered by ascending size.  The last
#: entry is the ~500k-edge graph the acceptance gates are measured on.
SUITE = {
    "cl-100k": lambda: powerlaw_chung_lu(20_000, 10.0, 2.3, seed=7),
    "cl-500k": lambda: powerlaw_chung_lu(100_000, 10.0, 2.3, seed=7),
}
QUICK_SUITE = ("cl-100k",)

DELTA_SIZES = (1, 10, 100, 1000, 10000)
QUICK_DELTA_SIZES = (1, 10, 100)
#: Held-out deltas stop here: beyond it the pool would thin the graph.
MAX_HELD_OUT_SIZE = 1000
#: A planner choice within this factor of the better path counts as right.
PLANNER_SLACK = 1.25

#: Gate: single-edge deltas must maintain (batched) at least this many
#: times faster than the full rebuild on the largest dataset.
GATE_SPEEDUP = 5.0
#: Gates on the batched kernel path (full peel / batched repair).
GATE_BATCHED_100 = 5.0
GATE_BATCHED_1000 = 2.0


def random_delta(rng: np.random.Generator, graph, size: int) -> GraphDelta:
    """A half-insert / half-delete delta valid against ``graph``."""
    edges = graph.edge_array()
    num_delete = min(size // 2, len(edges))
    num_insert = size - num_delete
    delete = edges[rng.choice(len(edges), size=num_delete, replace=False)]
    n = graph.num_vertices
    insert: set[tuple[int, int]] = set()
    deleted = set(map(tuple, delete.tolist()))
    while len(insert) < num_insert:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        edge = (min(u, v), max(u, v))
        if u != v and edge not in deleted and not graph.has_edge(u, v):
            insert.add(edge)
    return GraphDelta.from_edges(sorted(insert), delete)


def held_out_split(graph, pool: int, seed: int = 7):
    """``(base, held)``: ``graph`` minus ``pool`` random edges, and those."""
    edges = graph.edge_array()
    held = np.zeros(len(edges), dtype=bool)
    held[np.random.default_rng([seed, 1]).permutation(len(edges))[:pool]] = True
    return Graph.from_edges(edges[~held], num_vertices=graph.num_vertices), edges[held]


def held_out_deltas(rng: np.random.Generator, held: np.ndarray):
    """Delta factory re-adding the held-out edges in a random order."""
    order = rng.permutation(len(held))
    taken = 0

    def make(graph, size: int) -> GraphDelta:
        nonlocal taken
        num_insert = size - size // 2
        insert = held[order[taken:taken + num_insert]]
        taken += num_insert
        edges = graph.edge_array()
        delete = edges[rng.choice(len(edges), size=size // 2, replace=False)]
        return GraphDelta.from_edges(insert, delete)

    return make


def bench_dataset(name: str, graph, sizes: tuple[int, ...], repeats: int,
                  kind: str = "uniform", make_delta=None) -> list[dict]:
    backend = get_backend()
    rng = np.random.default_rng(42)
    if make_delta is None:
        make_delta = lambda g, size: random_delta(rng, g, size)  # noqa: E731
    rows: list[dict] = []
    vg = VersionedGraph(graph)
    core = backend.peel_coreness(graph)
    print(f"[{name} {kind}] n={graph.num_vertices} m={graph.num_edges}", flush=True)
    for size in sizes:
        for _ in range(repeats):
            delta = make_delta(vg.graph, size)
            work = planner.delta_work(delta.insert, len(delta.delete), vg.graph.degrees())

            start = time.perf_counter()
            nxt = vg.apply(delta)
            apply_seconds = time.perf_counter() - start

            start = time.perf_counter()
            result = incremental_core_numbers(
                vg.graph, core, nxt.applied, new_graph=nxt.graph, plan="batched"
            )
            batched_seconds = time.perf_counter() - start

            start = time.perf_counter()
            full = backend.peel_coreness(nxt.graph)
            full_seconds = time.perf_counter() - start

            if not np.array_equal(result.coreness, full):
                raise AssertionError(
                    f"batched coreness diverged on {name} size={size}"
                )
            choice = plan_maintenance(
                delta.num_changes, nxt.graph.num_edges, backend_name=backend.name,
                work=work,
            ).choice
            rows.append(
                {
                    "dataset": name,
                    "kind": kind,
                    "delta_size": delta.num_changes,
                    "work": work,
                    "epoch": nxt.epoch,
                    "n": nxt.graph.num_vertices,
                    "m": nxt.graph.num_edges,
                    "apply_seconds": apply_seconds,
                    "batched_seconds": batched_seconds,
                    "full_seconds": full_seconds,
                    "path": result.path,
                    "reason": result.reason,
                    "planner_choice": choice,
                    "changed": int(len(result.changed)),
                }
            )
            print(
                f"  size={size:5d} epoch={nxt.epoch:3d} "
                f"apply={apply_seconds * 1e3:8.2f}ms "
                f"batched={batched_seconds * 1e3:8.2f}ms "
                f"full={full_seconds * 1e3:8.2f}ms "
                f"(plan would pick {choice}; {len(result.changed)} changed)",
                flush=True,
            )
            vg, core = nxt, result.coreness
    return rows


def _median_cells(rows: list[dict], field: str) -> dict[tuple[str, int], float]:
    """Median of ``field`` per (dataset, delta size); held-out rows file
    under the dataset name ``<dataset>/held-out``."""
    cells: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        if row.get(field) is not None:
            dataset = row["dataset"] if row["kind"] == "uniform" else f"{row['dataset']}/{row['kind']}"
            cells.setdefault((dataset, row["delta_size"]), []).append(row[field])
    return {key: float(np.median(vals)) for key, vals in cells.items()}


def summarise(rows: list[dict]) -> dict:
    """Median speedups (full / batched) per (dataset, delta size)."""
    full = _median_cells(rows, "full_seconds")
    out: dict[str, dict[str, float]] = {}
    for key, med in _median_cells(rows, "batched_seconds").items():
        if med > 0:
            dataset, size = key
            out[f"{dataset}/size-{size}"] = {"batched": round(full[key] / med, 2)}
    return dict(sorted(out.items()))


def planner_fit(rows: list[dict], backend_name: str) -> dict:
    """The coefficients the rows imply for the planner's cost model, per
    kind, and how often its choice ran within ``PLANNER_SLACK`` of the
    better path (rows past the large-delta guard are left out)."""
    out: dict[str, dict] = {}
    for kind in sorted({row["kind"] for row in rows}):
        mine = [r for r in rows if r["kind"] == kind and r["delta_size"] <= r["m"] // 4]
        per_unit = [
            (r["batched_seconds"] - planner._BATCHED_FIXED_SECONDS
             - 2 * r["m"] * planner._BATCHED_SETUP_SECONDS_PER_ARC) / r["work"]
            for r in mine if r["delta_size"] >= 100
        ]
        per_arc = [
            (r["full_seconds"] - planner._REBUILD_FIXED_SECONDS) / (2 * r["m"]) for r in mine
        ]
        right = [
            {"batched": r["batched_seconds"], "rebuild": r["full_seconds"]}[r["planner_choice"]]
            <= PLANNER_SLACK * min(r["batched_seconds"], r["full_seconds"])
            for r in mine
        ]
        out[kind] = {
            "batched_seconds_per_unit": float(np.median(per_unit)) if per_unit else None,
            "rebuild_seconds_per_arc": float(np.median(per_arc)) if per_arc else None,
            "planner_within_slack": round(float(np.mean(right)), 3) if right else None,
        }
    return {
        "backend": backend_name,
        "model": {
            "batched_seconds_per_unit": planner._BATCHED_SECONDS_PER_UNIT.get(backend_name),
            "rebuild_seconds_per_arc": planner._REBUILD_SECONDS_PER_ARC.get(backend_name),
        },
        "slack": PLANNER_SLACK,
        "kinds": out,
    }


def crossover(rows: list[dict], dataset: str) -> dict:
    """Interpolated delta size where batched repair meets the full peel.

    Log-log interpolation between the last size where the median batched
    time beats the median full peel and the first where it does not;
    ``null`` bound means the batched path still won at the largest
    measured size (the crossover lies beyond the sweep).
    """
    batched = _median_cells(rows, "batched_seconds")
    full = _median_cells(rows, "full_seconds")
    sizes = sorted(size for (ds, size) in batched if ds == dataset)
    last_win, first_loss = None, None
    for size in sizes:
        if batched[(dataset, size)] < full[(dataset, size)]:
            last_win = size
        elif last_win is not None and first_loss is None:
            first_loss = size
    estimate = None
    if last_win is not None and first_loss is not None:
        lo, hi = (dataset, last_win), (dataset, first_loss)
        # Interpolate log(batched/full) == 0 between the two sizes.
        flo = np.log(batched[lo] / full[lo])
        fhi = np.log(batched[hi] / full[hi])
        t = -flo / (fhi - flo)
        estimate = int(round(np.exp(
            np.log(last_win) + t * (np.log(first_loss) - np.log(last_win))
        )))
    return {
        "dataset": dataset,
        "last_winning_size": last_win,
        "first_losing_size": first_loss,
        "estimated_crossover_edges": estimate,
    }


def maintain_path_counts() -> dict:
    """Explicit ``dynamic.maintain`` counter breakdown for the report."""
    paths: dict[str, float] = {}
    for key, value in obs.counters().items():
        name, labels = obs.parse_counter_key(key)
        if name == "dynamic.maintain":
            tags = dict(labels)
            paths[f"{tags.get('path', '?')}/{tags.get('reason', '?')}"] = value
    return paths


def check_gate(report: dict, largest: str) -> bool:
    """Enforce the maintain-vs-rebuild gates on the largest dataset."""
    speedups = report["speedups"]
    ok = True

    single = speedups.get(f"{largest}/size-1", {}).get("batched")
    if single is None:
        print(f"GATE FAILED: no single-edge measurement for {largest}")
        ok = False
    else:
        print(f"gate: single-edge maintain-vs-rebuild on {largest}: {single:.1f}x")
        if single < GATE_SPEEDUP:
            print(
                f"GATE FAILED: maintain < {GATE_SPEEDUP}x full rebuild "
                f"for single-edge deltas on {largest}"
            )
            ok = False

    for size, floor in ((100, GATE_BATCHED_100), (1000, GATE_BATCHED_1000)):
        ratio = speedups.get(f"{largest}/size-{size}", {}).get("batched")
        if ratio is None:
            print(f"GATE FAILED: no batched measurement at size {size} on {largest}")
            ok = False
            continue
        print(f"gate: batched-vs-rebuild at {size}-edge deltas on {largest}: {ratio:.1f}x")
        if ratio < floor:
            print(
                f"GATE FAILED: batched < {floor}x full rebuild "
                f"at {size}-edge deltas on {largest}"
            )
            ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest dataset, small deltas, fewer repeats, no gate (CI smoke)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="deltas timed per (dataset, size)"
    )
    parser.add_argument(
        "-o", "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT.name} at the repo root)",
    )
    args = parser.parse_args(argv)

    # Counters feed both the maintain_paths block and execution_metadata.
    obs.enable()
    from repro.bench.harness import execution_metadata

    names = QUICK_SUITE if args.quick else tuple(SUITE)
    sizes = QUICK_DELTA_SIZES if args.quick else DELTA_SIZES
    repeats = 2 if args.quick else args.repeats

    held_sizes = tuple(size for size in sizes if size <= MAX_HELD_OUT_SIZE)
    rows: list[dict] = []
    for name in names:
        graph = SUITE[name]()
        rows.extend(bench_dataset(name, graph, sizes, repeats))
        base, held = held_out_split(graph, sum(held_sizes) * repeats)
        rows.extend(bench_dataset(
            name, base, held_sizes, repeats, "held-out",
            held_out_deltas(np.random.default_rng(43), held),
        ))

    report = {
        "rows": rows,
        "speedups": summarise(rows),
        "fit": planner_fit(rows, get_backend().name),
        "crossover": crossover(rows, names[-1]),
        "maintain_paths": maintain_path_counts(),
        "output": {"quick": args.quick, "repeats": repeats, "delta_sizes": list(sizes)},
        "execution": execution_metadata(jobs=1, cache_dir=None),
        "metadata": {
            **machine_metadata(get_backend().name),
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    if args.quick:
        return 0
    return 0 if check_gate(report, names[-1]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
