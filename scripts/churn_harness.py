#!/usr/bin/env python
"""End-to-end churn harness: random deltas, verified at every epoch.

Drives a :class:`repro.index.BestKIndex` (with a persistent store)
through a stream of random insert/delete deltas and, at every epoch,
verifies the maintained index against a cold rebuild of the new
snapshot:

* the patched core decomposition is bit-identical to a full peel;
* the patched Algorithm 1 ordering (``index.artifact("core", "ordering")``:
  levels, rank, indptr, indices, the same/plus/high tags, order and
  level_start) is bit-identical to ``order_vertices`` on a cold copy of
  the snapshot;
* every queried family's best level set and scores agree;
* after the stream, a fresh process-equivalent index warm-restarted
  from the epoch store answers identically without re-peeling.

Exit status 0 when every epoch verifies, 1 with a diagnosis otherwise.
Run from the repository root::

    PYTHONPATH=src python scripts/churn_harness.py
    PYTHONPATH=src python scripts/churn_harness.py --steps 100 --seed 3
    PYTHONPATH=src python scripts/churn_harness.py --delta-sizes 1,10,100

``--delta-sizes`` cycles the listed exact delta sizes across epochs (one
size per epoch, round-robin) instead of random sizes up to
``--max-changes``, and every epoch prints the executed maintenance path
— so a planner-crossover regression reproduces from the command line
with nothing but a seed and a size list.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import core_decomposition, order_vertices
from repro.dynamic import PLAN_CHOICES, GraphDelta
from repro.generators import gnm_random_graph
from repro.graph import Graph
from repro.index import ArtifactStore, BestKIndex

METRICS = ("average_degree", "internal_density")
FAMILIES = ("core", "truss")
ORDER_FIELDS = (
    "levels", "rank", "indptr", "indices", "same", "plus", "high", "order", "level_start",
)


def random_delta(rng: random.Random, graph, num_changes: int) -> GraphDelta:
    edges = set(map(tuple, graph.edge_array().tolist()))
    n = graph.num_vertices
    pool = sorted(edges)
    rng.shuffle(pool)
    ins, dele = [], set()
    for _ in range(num_changes):
        if pool and rng.random() < 0.45:
            edge = pool.pop()
            edges.discard(edge)
            dele.add(edge)
        else:
            for _ in range(200):
                u, v = rng.randrange(n), rng.randrange(n)
                edge = (min(u, v), max(u, v))
                if u != v and edge not in edges and edge not in dele:
                    edges.add(edge)
                    ins.append(edge)
                    break
    return GraphDelta.from_edges(ins, sorted(dele))


def verify_epoch(index: BestKIndex, label: str) -> list[str]:
    """Every queried answer vs a cold index on the same snapshot."""
    failures = []
    cold = BestKIndex(index.graph, store=False)
    if not np.array_equal(
        index.decomposition.coreness, core_decomposition(index.graph).coreness
    ):
        failures.append(f"{label}: maintained coreness != full peel")
    ordered = index.artifact("core", "ordering")
    cold_order = order_vertices(Graph.from_arrays(index.graph.indptr, index.graph.indices))
    for field in ORDER_FIELDS:
        if not np.array_equal(getattr(ordered, field), getattr(cold_order, field)):
            failures.append(f"{label}: ordering {field} != cold order_vertices")
    for family in FAMILIES:
        for metric in METRICS:
            warm = index.best_level(family, metric)
            exact = cold.best_level(family, metric)
            if (
                warm.k != exact.k
                or warm.score != exact.score
                or not np.array_equal(warm.vertices, exact.vertices)
            ):
                failures.append(
                    f"{label}: {family}/{metric} diverged "
                    f"(warm k={warm.k} cold k={exact.k})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=40, help="deltas to apply")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--vertices", type=int, default=300)
    parser.add_argument("--edges", type=int, default=900)
    parser.add_argument(
        "--max-changes", type=int, default=6, help="max edge changes per delta"
    )
    parser.add_argument(
        "--delta-sizes", default=None, metavar="N,N,...",
        help="cycle these exact delta sizes across epochs "
             "(overrides --max-changes randomisation)",
    )
    parser.add_argument(
        "--plan", default=None, choices=PLAN_CHOICES,
        help="force the maintenance outcome (default: cost-model planner)",
    )
    args = parser.parse_args(argv)
    sizes = (
        [int(s) for s in args.delta_sizes.split(",") if s.strip()]
        if args.delta_sizes else None
    )

    rng = random.Random(args.seed)
    graph = gnm_random_graph(args.vertices, args.edges, seed=args.seed)
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="churn-store-") as tmp:
        store = ArtifactStore(tmp)
        index = BestKIndex(graph, store=store)
        index.best_set(METRICS[0])  # core baseline for incremental repair
        paths = {"batched": 0, "rebuild": 0, "none": 0}
        for step in range(args.steps):
            size = (
                sizes[step % len(sizes)] if sizes
                else rng.randrange(1, args.max_changes + 1)
            )
            delta = random_delta(rng, index.graph, size)
            result = index.apply(delta, plan=args.plan)
            paths[result.path] = paths.get(result.path, 0) + 1
            print(
                f"  epoch {result.epoch}: +{result.inserted} -{result.deleted} "
                f"path={result.path} reason={result.reason}"
            )
            failures.extend(verify_epoch(index, f"epoch {result.epoch}"))
            if failures:
                break
        print(
            f"applied {args.steps} deltas to n={args.vertices} m~{args.edges}: "
            f"paths={paths}, final epoch {index.epoch} "
            f"(n={index.graph.num_vertices}, m={index.graph.num_edges})"
        )

        if not failures:
            resumed = store.load_latest_epoch(index.versioned.lineage)
            if resumed is None:
                failures.append("warm restart: no epoch record survived")
            else:
                warm = BestKIndex(resumed, store=store)
                failures.extend(verify_epoch(warm, "warm restart"))
                if warm.epoch != index.epoch:
                    failures.append(
                        f"warm restart resumed epoch {warm.epoch}, "
                        f"expected {index.epoch}"
                    )

    if failures:
        print("churn harness FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("churn harness OK: every epoch bit-identical to cold rebuild")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
