"""Command-line interface.

Installed as the ``bestk`` console script (also ``python -m repro``):

* ``bestk decompose GRAPH``            — coreness statistics of a graph
* ``bestk set GRAPH -m METRIC``        — best level set of any registered
  hierarchy family (``--family {core,truss,weighted,ecc}``; default core)
* ``bestk core GRAPH -m METRIC``       — best single k-core
* ``bestk apply GRAPH --edges FILE``   — apply an edge delta: produce the
  next epoch snapshot with incremental core maintenance and scoped index
  invalidation (``--delete`` removes the edges instead)
* ``bestk epochs GRAPH``               — list the recorded epoch snapshots
  of a graph's lineage in the artifact cache
* ``bestk families``                   — list the hierarchy-family registry
* ``bestk backends``                   — list kernel backends, marking the
  resolved default; for the native backend, the C compiler, why it falls
  back to numpy when it does, and the per-kernel native/fallback status
  (``--check NAME`` exits nonzero when NAME cannot serve natively)
* ``bestk densest GRAPH``              — Opt-D vs CoreApp
* ``bestk forest GRAPH``               — ASCII core-forest tree
* ``bestk profile GRAPH -m METRIC``    — score-vs-k profile with sparkline
* ``bestk validate GRAPH``             — structural integrity checks
* ``bestk experiment NAME``            — regenerate a paper table/figure
* ``bestk report [--out DIR]``         — all experiments into one REPORT.md
* ``bestk datasets``                   — list the stand-in registry
* ``bestk cache {ls,clear,prune,warm}`` — manage the persistent artifact cache
* ``bestk bench {list,run,compare,update-baseline}`` — the closed-loop
  scenario harness: sweep the registered benchmark scenarios
  (``run --quick`` for the CI subset), compare a sweep against the
  committed baseline with the noise-aware regression sentinel
  (exit 1 on regression), or refresh the baseline
* ``bestk stats TRACE``                — render a ``--trace`` JSONL file as
  a span tree + counter table + latency-percentile table
  (``--prometheus`` for text exposition including histogram series)

``GRAPH`` is either an edge-list path (gzip OK) or ``dataset:KEY`` for a
registry stand-in (e.g. ``dataset:DBLP``).

The index-backed commands (``set``/``core``, ``cache warm``)
accept ``--cache-dir PATH`` (persistent artifact cache;
``REPRO_CACHE_DIR`` is the default).  They also accept ``--trace FILE``
— equivalent to the ``REPRO_TRACE`` environment variable — which
appends the run's :mod:`repro.obs` spans and counters as JSON lines for
``bestk stats`` to replay.

Selector strictness: an *explicitly requested* backend (``--backend`` or
``REPRO_BACKEND``) that cannot actually serve — unknown name, or the
native backend with every kernel in fallback — fails fast with exit
code 1 instead of silently degrading to another implementation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__, obs
from .bench.report import EXPERIMENT_ORDER, run_all_experiments
from .core import (
    PAPER_METRICS,
    available_metrics,
    best_single_kcore,
    core_decomposition,
)
from .dynamic import PLAN_CHOICES
from .engine import available_families, get_family
from .errors import ReproError
from .generators import DATASETS, load_dataset
from .graph import load_edge_list, validate_graph
from .graph.csr import Graph

__all__ = ["main", "build_parser"]

def _load_graph(spec: str) -> Graph:
    if spec.startswith("dataset:"):
        return load_dataset(spec.split(":", 1)[1])
    return load_edge_list(spec).graph


def _backend_arg(p: argparse.ArgumentParser) -> None:
    from .kernels import available_backends

    p.add_argument(
        "--backend", default=None, choices=available_backends(),
        help="kernel backend (bit-identical; default: REPRO_BACKEND or native, "
             "which runs the hot kernels as compiled C and degrades per "
             "kernel to numpy — see 'bestk backends')",
    )


def _index_args(p: argparse.ArgumentParser) -> None:
    _backend_arg(p)
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent artifact cache directory "
             "(default: REPRO_CACHE_DIR, or no cache)",
    )
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append obs spans/counters to FILE as JSON lines "
             "(same as REPRO_TRACE; inspect with 'bestk stats FILE')",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestk",
        description="Finding the best k in core decomposition (ICDE 2020 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"bestk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="edge-list path or dataset:KEY")

    p = sub.add_parser("decompose", help="coreness statistics")
    graph_arg(p)
    _backend_arg(p)

    for name, helptext in (
        ("set", "best level set of a hierarchy family (Problem 1)"),
        ("core", "best single k-core"),
    ):
        p = sub.add_parser(name, help=helptext)
        graph_arg(p)
        p.add_argument(
            "-m", "--metric", default=None,
            help="community metric (default: the family's default metric; "
                 f"core metrics: {', '.join(available_metrics())})",
        )
        p.add_argument(
            "--all-metrics", action="store_true",
            help="report every one of the family's batch metrics instead of one",
        )
        _index_args(p)
        if name == "set":
            p.add_argument(
                "--family", default="core",
                help="hierarchy family from the registry "
                     "(core, truss, weighted, ecc, or any registered family)",
            )
            p.add_argument(
                "--weights-seed", type=int, default=7,
                help="seed for synthetic log-normal edge weights "
                     "(weighted family only)",
            )
            p.add_argument(
                "--num-levels", type=int, default=64,
                help="strength quantisation resolution (weighted family only)",
            )

    p = sub.add_parser(
        "apply",
        help="apply an edge delta: next epoch + incremental core maintenance",
    )
    graph_arg(p)
    p.add_argument(
        "--edges", required=True, metavar="FILE",
        help="file of whitespace-separated 'u v' pairs "
             "(gzip ok, # comments, '-' reads stdin)",
    )
    p.add_argument(
        "--delete", action="store_true",
        help="delete the edges instead of inserting them",
    )
    p.add_argument(
        "--plan", default=None, choices=PLAN_CHOICES,
        help="force the core-maintenance outcome "
             "(default: cost-model planner)",
    )
    p.add_argument(
        "--num-vertices", type=int, default=None,
        help="grow the graph to at least this many vertices (isolated growth)",
    )
    p.add_argument(
        "--lenient", action="store_true",
        help="drop no-op edges (insert already present / delete missing) "
             "instead of failing",
    )
    _index_args(p)

    p = sub.add_parser(
        "epochs",
        help="list the recorded epoch snapshots of a graph's lineage",
    )
    graph_arg(p)
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (default: REPRO_CACHE_DIR)")

    sub.add_parser("families", help="list the hierarchy-family registry")

    p = sub.add_parser(
        "backends",
        help="list kernel backends and the default; for native, per-kernel "
             "native/fallback status",
    )
    p.add_argument(
        "--check", default=None, metavar="NAME",
        help="exit 1 with a diagnostic if backend NAME cannot serve "
             "(unknown, or native with every kernel in fallback)",
    )

    p = sub.add_parser("densest", help="densest subgraph: Opt-D vs CoreApp")
    graph_arg(p)

    p = sub.add_parser("forest", help="draw the core forest as an ASCII tree")
    graph_arg(p)
    p.add_argument("-m", "--metric", default=None,
                   help="annotate each core with this metric's score")

    p = sub.add_parser("profile", help="score-vs-k profile with sparkline")
    graph_arg(p)
    p.add_argument("-m", "--metric", default="average_degree",
                   help=f"community metric ({', '.join(available_metrics())})")

    p = sub.add_parser("validate", help="check graph integrity invariants")
    graph_arg(p)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("name", choices=[e.name for e in EXPERIMENT_ORDER],
                   help="experiment id")

    p = sub.add_parser("report", help="run every experiment into one REPORT.md")
    p.add_argument("--out", default="report", help="output directory")
    p.add_argument("--only", default=None,
                   help="comma-separated subset of experiment names")

    sub.add_parser("datasets", help="list the dataset stand-in registry")

    p = sub.add_parser("stats", help="render a --trace JSONL file")
    p.add_argument("trace", help="trace file written by --trace / REPRO_TRACE")
    p.add_argument(
        "--prometheus", action="store_true",
        help="emit counters in Prometheus text exposition format instead",
    )
    p.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate the span tree below this depth",
    )

    p = sub.add_parser(
        "bench", help="closed-loop scenario benchmarks and regression sentinel"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pb = bench_sub.add_parser("list", help="list the registered scenarios")
    pb.add_argument(
        "--quick", action="store_true", help="show only the --quick subset"
    )
    pb = bench_sub.add_parser(
        "run", help="sweep the scenario registry into a result JSON"
    )
    pb.add_argument(
        "--quick", action="store_true",
        help="run only the quick subset (what CI sweeps per push)",
    )
    pb.add_argument(
        "--only", default=None,
        help="comma-separated scenario names instead of the full sweep",
    )
    pb.add_argument(
        "--repeats", type=int, default=None,
        help="override every scenario's repeat count",
    )
    pb.add_argument(
        "-o", "--output", default="BENCH_scenarios.json",
        help="result JSON path (default: BENCH_scenarios.json)",
    )
    pb = bench_sub.add_parser(
        "compare", help="compare a result JSON against the committed baseline"
    )
    pb.add_argument(
        "results", nargs="?", default="BENCH_scenarios.json",
        help="result JSON from 'bestk bench run' (default: BENCH_scenarios.json)",
    )
    pb.add_argument(
        "--baseline", default="benchmarks/baselines/scenarios.json",
        help="baseline JSON (default: benchmarks/baselines/scenarios.json)",
    )
    pb.add_argument(
        "--rel", type=float, default=None,
        help="relative slowdown threshold (default 0.5 = 50%%)",
    )
    pb.add_argument(
        "--abs-floor", type=float, default=None,
        help="absolute regression floor in seconds (default 0.025)",
    )
    pb.add_argument(
        "--structure-only", action="store_true",
        help="timing verdicts advisory; fail only on structural drift "
             "(missing scenarios, unverified answers, schema mismatch)",
    )
    pb = bench_sub.add_parser(
        "update-baseline", help="distill a result JSON into the baseline file"
    )
    pb.add_argument(
        "results", nargs="?", default="BENCH_scenarios.json",
        help="result JSON from 'bestk bench run' (default: BENCH_scenarios.json)",
    )
    pb.add_argument(
        "--baseline", default="benchmarks/baselines/scenarios.json",
        help="baseline JSON to write (default: benchmarks/baselines/scenarios.json)",
    )

    p = sub.add_parser("cache", help="manage the persistent artifact cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser("ls", help="list cached bundles")
    pc.add_argument("--cache-dir", default=None,
                    help="cache directory (default: REPRO_CACHE_DIR)")
    pc = cache_sub.add_parser(
        "clear", help="delete every cached bundle, shard state and epoch lineage"
    )
    pc.add_argument("--cache-dir", default=None,
                    help="cache directory (default: REPRO_CACHE_DIR)")
    pc = cache_sub.add_parser(
        "prune", help="delete bundles and epoch records of another store format"
    )
    pc.add_argument("--cache-dir", default=None,
                    help="cache directory (default: REPRO_CACHE_DIR)")
    pc = cache_sub.add_parser(
        "warm", help="prebuild a graph's artifacts into the cache"
    )
    graph_arg(pc)
    pc.add_argument(
        "--family", action="append", default=None,
        help="family to warm (repeatable; default: core and truss)",
    )
    _index_args(pc)
    return parser


def _cmd_decompose(args) -> int:
    from .graph import graph_summary
    graph = _load_graph(args.graph)
    decomp = core_decomposition(graph, backend=args.backend)
    print(graph_summary(graph).render())
    print(f"kmax (degeneracy) = {decomp.kmax}")
    for k in range(decomp.kmax + 1):
        size = decomp.shell_size(k)
        if size:
            print(f"  shell {k}: {size} vertices, |C_{k}| = {decomp.kcore_set_size(k)}")
    return 0


def _cmd_bestk(args, which: str) -> int:
    import time

    from .index import BestKIndex

    graph = _load_graph(args.graph)
    # One shared index across every metric: expensive artifacts (peeling,
    # ordering, forest, triangle charges) are built once and reused, which
    # is the whole point of --all-metrics.  --cache-dir persists them for
    # the next invocation.
    with obs.span(
        "cli:" + which, n=graph.num_vertices, m=graph.num_edges,
        all_metrics=bool(args.all_metrics),
    ):
        index = BestKIndex(graph, backend=args.backend, store=args.cache_dir or None)
        start = time.perf_counter()
        if which == "core":
            # Problem 2 in the paper's k-core vocabulary (Algorithm 5).
            metrics = PAPER_METRICS if args.all_metrics else (args.metric or "average_degree",)
            for metric in metrics:
                result = best_single_kcore(graph, metric, index=index)
                print(
                    f"{metric}: best k = {result.k}, score = {result.score:.6g}, "
                    f"|V| = {len(result.vertices)}"
                )
        else:
            family = get_family(args.family)
            params = {}
            if family.name == "weighted":
                import numpy as np

                rng = np.random.default_rng(args.weights_seed)
                params = {
                    "edge_weights": rng.lognormal(mean=0.0, sigma=0.75, size=graph.num_edges),
                    "num_levels": args.num_levels,
                }
                print(
                    f"# synthetic log-normal edge weights "
                    f"(seed {args.weights_seed}, {args.num_levels} quantised levels)"
                )
            metrics = (
                family.batch_metrics if args.all_metrics
                else (args.metric or family.default_metric,)
            )
            for metric in metrics:
                result = index.best_level(family, metric, **params)
                print(
                    f"{metric}: best k = {result.k}, score = {result.score:.6g}, "
                    f"|V| = {len(result.vertices)}"
                )
        if args.all_metrics:
            total = time.perf_counter() - start
            build = index.total_build_seconds()
            print(
                f"index built once in {build:.3f}s; "
                f"scoring all {len(metrics)} metrics took {max(total - build, 0.0):.3f}s"
            )
            for fam_name in index.built_families():
                split = ", ".join(
                    f"{k}={v:.3f}s" for k, v in index.phase_seconds(fam_name).items() if v
                )
                print(f"  {fam_name}: {split}")
    return 0


def _backend_unavailable(name: str) -> str | None:
    """Why the named backend cannot serve, or ``None`` when it can.

    Unknown names report the registry error.  The native backend counts
    as unavailable only when *no* kernel compiled natively — per-kernel
    fallback is its documented contract, but a user who explicitly asked
    for ``native`` and would get pure numpy deserves a hard failure, not
    a silent degrade.
    """
    from .kernels import get_backend

    try:
        backend = get_backend(name)
    except ReproError as exc:
        return str(exc)
    kernel_status = getattr(backend, "kernel_status", None)
    if kernel_status is None:
        return None
    status = kernel_status()
    if any(state["mode"] == "native" for state in status.values()):
        return None
    reasons = "; ".join(sorted({
        state["reason"] for state in status.values() if state["mode"] == "fallback"
    }))
    return (
        f"backend {name!r} was requested explicitly but every kernel would "
        f"fall back to numpy ({reasons}); install a C compiler (or set $CC), "
        f"unset REPRO_NATIVE_DISABLE, or drop the explicit backend request"
    )


def _validate_selectors(args) -> None:
    """Fail fast on an explicitly requested backend that cannot serve.

    Only commands carrying ``--backend`` are checked, and only when the
    user asked for something — via the flag or the environment variable.
    The default resolution path (no request) keeps its documented
    degrade behaviour.
    """
    import os

    if hasattr(args, "backend"):
        requested = args.backend or os.environ.get("REPRO_BACKEND", "").strip() or None
        if requested:
            message = _backend_unavailable(requested)
            if message:
                raise ReproError(message)


def _cmd_apply(args) -> int:
    from .dynamic import GraphDelta, VersionedGraph, edges_from_file
    from .index import BestKIndex
    from .index.store import resolve_store

    base = _load_graph(args.graph)
    store = resolve_store(args.cache_dir or None)
    vg = VersionedGraph(base)
    if store is not None:
        resumed = store.load_latest_epoch(vg.lineage)
        if resumed is not None:
            print(f"resuming lineage {vg.lineage[:12]} at epoch {resumed.epoch}")
            vg = resumed
    pairs = edges_from_file(args.edges)
    delta = GraphDelta.from_edges(
        insert=() if args.delete else pairs,
        delete=pairs if args.delete else (),
        num_vertices=args.num_vertices,
    )
    with obs.span("cli:apply", n=vg.num_vertices, m=vg.num_edges):
        index = BestKIndex(vg, backend=args.backend, store=store)
        # Ensure a core baseline exists before applying: hydrated from the
        # store when warm, built once when cold.  The apply then repairs
        # it incrementally and re-persists it under the new epoch's key,
        # so chained invocations never re-peel.
        index.family_decomposition("core")
        result = index.apply(delta, strict=not args.lenient, plan=args.plan)
    graph = result.graph
    print(
        f"epoch {result.epoch}: n={graph.num_vertices:,} "
        f"m={graph.num_edges:,} (+{result.inserted} -{result.deleted} edges)"
    )
    print(
        f"maintenance: path={result.path} reason={result.reason} "
        f"changed={result.changed} vertex core number(s)"
    )
    for label, names in (
        ("patched", result.patched),
        ("retained", result.retained),
        ("invalidated", result.invalidated),
    ):
        if names:
            print(f"  {label}: {', '.join(names)}")
    if store is not None:
        lineage = index.versioned.lineage
        records = store.epoch_records(lineage)
        print(
            f"lineage {lineage[:12]}: {len(records)} epoch record(s) "
            f"in {store.root}"
        )
    else:
        print(
            "(no cache directory: epoch not persisted; "
            "pass --cache-dir to chain applies)"
        )
    return 0


def _cmd_epochs(args) -> int:
    from .dynamic import VersionedGraph
    from .index.store import resolve_store

    store = resolve_store(args.cache_dir or None)
    if store is None:
        print(
            "error: no cache directory (pass --cache-dir or set REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 1
    base = _load_graph(args.graph)
    vg = VersionedGraph(base)
    records = store.epoch_records(vg.lineage)
    print(
        f"epoch 0: n={base.num_vertices:,} m={base.num_edges:,} "
        f"(base graph, lineage {vg.lineage[:12]})"
    )
    for meta in records:
        print(
            f"epoch {meta['epoch']}: n={meta['n']:,} m={meta['m']:,} "
            f"(+{meta['inserted']} -{meta['deleted']} edges, "
            f"digest {str(meta['digest'])[:12]})"
        )
    if records:
        print(f"{len(records)} record(s); latest epoch {records[-1]['epoch']} in {store.root}")
    else:
        print("no epoch records yet; 'bestk apply --cache-dir ...' writes them")
    return 0


def _cmd_families(_args) -> int:
    for name in available_families():
        fam = get_family(name)
        print(
            f"{name:9s} {fam.title:18s} level={fam.level_label:2s} "
            f"section={fam.paper_section or '-':6s} default={fam.default_metric}"
        )
        if fam.description:
            print(f"          {fam.description}")
    return 0


def _cmd_backends(args) -> int:
    from .kernels import available_backends, get_backend
    from .kernels.native_backend import NativeBackend

    if getattr(args, "check", None):
        message = _backend_unavailable(args.check)
        if message:
            print(f"error: {message}", file=sys.stderr)
            return 1
        print(f"{args.check}: available")
        return 0

    blurbs = {
        "python": "scalar reference loops (bit-identical yardstick)",
        "numpy": "vectorised whole-frontier array passes",
        "native": "compiled C hot kernels with per-kernel numpy fallback",
    }
    default = get_backend().name
    for name in available_backends():
        backend = get_backend(name)
        mark = " (default)" if name == default else ""
        print(f"{name:9s} {blurbs.get(name, type(backend).__name__)}{mark}")
        if not isinstance(backend, NativeBackend):
            continue
        print(
            f"          provider={backend.provider_name() or 'none'} "
            f"jit-cache={backend.jit_cache_state() or '-'}"
        )
        reason = backend.unavailable_reason()
        if reason:
            print(f"          runs numpy instead: {reason}")
        for kernel, state in sorted(backend.kernel_status().items()):
            if state["mode"] == "native":
                detail = "native"
            elif state["mode"] == "delegated":
                detail = "numpy (delegated by design)"
            else:
                detail = f"numpy (fallback: {state['reason']})"
            print(f"          {kernel:22s} {detail}")
    return 0


def _cmd_forest(args) -> int:
    from .core import build_core_forest, kcore_scores, order_vertices
    from .viz import render_forest
    graph = _load_graph(args.graph)
    ordered = order_vertices(graph)
    forest = build_core_forest(graph, ordered=ordered)
    scores = None
    if args.metric:
        scores = kcore_scores(graph, args.metric, ordered=ordered, forest=forest).scores
    print(render_forest(forest, scores=scores))
    return 0


def _cmd_profile(args) -> int:
    from .core import kcore_set_scores
    from .viz import render_score_profile, render_shell_histogram
    graph = _load_graph(args.graph)
    print(render_shell_histogram(core_decomposition(graph)))
    print()
    print(render_score_profile(kcore_set_scores(graph, args.metric)))
    return 0


def _cmd_densest(args) -> int:
    from .apps import core_app, opt_d
    graph = _load_graph(args.graph)
    for solver in (opt_d, core_app):
        result = solver(graph)
        print(f"{result.method}: average degree {result.avg_degree:.3f} on {len(result.vertices)} vertices")
    return 0


def _cmd_validate(args) -> int:
    graph = _load_graph(args.graph)
    validate_graph(graph)
    print(f"OK: {graph!r} satisfies all structural invariants")
    return 0


def _cmd_experiment(args) -> int:
    entry = next(e for e in EXPERIMENT_ORDER if e.name == args.name)
    print(entry.run())
    return 0


def _cmd_cache(args) -> int:
    from .index.store import resolve_store

    store = resolve_store(args.cache_dir or None)
    if store is None:
        print(
            "error: no cache directory (pass --cache-dir or set REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 1
    if args.cache_command == "ls":
        bundles = store.bundles()
        for info in bundles:
            print(
                f"{info.key:34s} n={info.num_vertices:<9,d} m={info.num_edges:<11,d} "
                f"backend={info.backend:10s} {info.nbytes / 1024:9.1f} KiB  "
                f"[{', '.join(info.artifacts)}]"
            )
        total = sum(info.nbytes for info in bundles)
        print(f"{len(bundles)} bundle(s), {total / 1024:.1f} KiB in {store.root}")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(
            f"removed {removed['bundles']} bundle(s), {removed['shard_states']} shard "
            f"state(s) and {removed['epoch_lineages']} epoch lineage(s) from {store.root}"
        )
        return 0
    if args.cache_command == "prune":
        removed = store.prune()
        print(f"removed {removed} stale bundle(s) or epoch record(s) from {store.root}")
        return 0
    # warm: prebuild every persistable artifact (batch metrics, so the
    # triangle pass is included, plus every family's Problem 2 forest) so
    # later queries start hot.
    from .index import BestKIndex

    graph = _load_graph(args.graph)
    families = tuple(args.family) if args.family else ("core", "truss")
    index = BestKIndex(graph, backend=args.backend, store=store)
    built = index.prebuild(families, problem2=True)
    for name, artifacts in built.items():
        print(f"warmed {name}: {', '.join(artifacts)}")
    print(f"cache at {store.root}: {len(store.bundles())} bundle(s)")
    return 0


def _cmd_stats(args) -> int:
    from .obs import (
        load_trace,
        prometheus_text,
        render_counter_table,
        render_histogram_table,
        render_span_tree,
    )

    data = load_trace(args.trace)
    if args.prometheus:
        print(
            prometheus_text(data["counters"], data["gauges"], data["histograms"]),
            end="",
        )
        return 0
    if data["spans"]:
        print(render_span_tree(data["spans"], max_depth=args.max_depth))
    else:
        print("(no spans recorded)")
    if data["counters"] or data["gauges"]:
        print()
        print(render_counter_table(data["counters"], data["gauges"]))
    if data["histograms"]:
        print()
        print(render_histogram_table(data["histograms"]))
    return 0


def _cmd_bench(args) -> int:
    import json
    import pathlib

    from .scenarios import (
        ABS_FLOOR_SECONDS,
        REL_THRESHOLD,
        baseline_from_results,
        compare_results,
        iter_scenarios,
        run_suite,
    )

    if args.bench_command == "list":
        scenarios = iter_scenarios(quick=args.quick)
        width = max(len(s.name) for s in scenarios)
        for s in scenarios:
            axes = f"{s.family}/{s.backend}"
            if s.jobs > 1:
                axes += f"/jobs={s.jobs}"
            if s.cache:
                axes += "/cache"
            if s.delta_stream:
                axes += f"/deltas={s.delta_stream}"
            mark = "*" if s.quick else " "
            print(f"{mark} {s.name:<{width}}  {axes:<28}  {s.description}")
        print(f"{len(scenarios)} scenario(s); * = --quick subset")
        return 0

    if args.bench_command == "run":
        only = tuple(args.only.split(",")) if args.only else None

        def progress(record: dict) -> None:
            wall = record["wall_seconds"]
            print(
                f"{record['scenario']:<24} n={record['n']:<6} m={record['m']:<7} "
                f"min {wall['min'] * 1e3:8.1f} ms  median {wall['median'] * 1e3:8.1f} ms  "
                f"verified={record['verified']}",
                flush=True,
            )

        report = run_suite(
            quick=args.quick, only=only, repeats=args.repeats, progress=progress
        )
        out = pathlib.Path(args.output)
        out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out} ({report['scenario_count']} scenario(s))")
        return 0

    if args.bench_command == "update-baseline":
        report = json.loads(pathlib.Path(args.results).read_text(encoding="utf-8"))
        baseline = baseline_from_results(report)
        out = pathlib.Path(args.baseline)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out} ({len(baseline['scenarios'])} scenario(s))")
        return 0

    # compare
    report = json.loads(pathlib.Path(args.results).read_text(encoding="utf-8"))
    baseline = json.loads(pathlib.Path(args.baseline).read_text(encoding="utf-8"))
    comparison = compare_results(
        report, baseline,
        rel_threshold=REL_THRESHOLD if args.rel is None else args.rel,
        abs_floor=ABS_FLOOR_SECONDS if args.abs_floor is None else args.abs_floor,
        structure_only=args.structure_only,
    )
    print(comparison.render())
    return 0 if comparison.passed else 1


def _cmd_datasets(_args) -> int:
    for spec in DATASETS:
        paper = spec.paper
        print(
            f"{spec.abbreviation:3s} {spec.name:12s} {spec.domain:28s} "
            f"paper: n={paper.num_vertices:,} m={paper.num_edges:,} kmax={paper.kmax}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", None):
        obs.configure_trace(args.trace)
    try:
        _validate_selectors(args)
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command in ("set", "core"):
            return _cmd_bestk(args, args.command)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "epochs":
            return _cmd_epochs(args)
        if args.command == "families":
            return _cmd_families(args)
        if args.command == "backends":
            return _cmd_backends(args)
        if args.command == "densest":
            return _cmd_densest(args)
        if args.command == "forest":
            return _cmd_forest(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "report":
            only = tuple(args.only.split(",")) if args.only else None
            path = run_all_experiments(args.out, only=only)
            print(f"report written to {path}")
            return 0
        if args.command == "datasets":
            return _cmd_datasets(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "stats":
            return _cmd_stats(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # Counter totals reach the trace file even on error exits.
        obs.flush_sinks()
    return 2


if __name__ == "__main__":
    sys.exit(main())
