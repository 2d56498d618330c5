"""Run one workload in a fresh process: set-up, timed loop, trace, checks.

``run.py`` starts this script once per (workload, mode) with ``src`` on
``PYTHONPATH`` and every ``REPRO_*`` variable cleared, then reads the JSON
result it writes to ``--out``.  The program is driven through its public
API only: ``repro.graph.io``, ``repro.graph.csr.Graph``,
``repro.index.BestKIndex``, ``repro.dynamic.GraphDelta`` and the
``repro.obs`` counters.

Requests run in a closed loop (one client, next request after the last
answer) until ``--seconds`` have passed.  The first request is an untimed
warm-up; in untraced runs it measures the request's peak heap.  With
``--trace 1`` every other request group is re-executed as the sequence of
per-layer public calls, each inside a benchmark-owned span; the untraced
groups in between give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import shutil
import sys
import time
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import verify
from inputs import DELTA_CYCLE
from measure import HostClock, Tracer, median, self_times

from repro import obs
from repro.dynamic import GraphDelta
from repro.graph.csr import Graph
from repro.graph.io import load_edge_list
from repro.index import BestKIndex

#: The six metrics of the paper, in its order.
PAPER_METRICS = (
    "average_degree", "internal_density", "cut_ratio",
    "conductance", "modularity", "clustering_coefficient",
)
#: The five metrics scored without the O(m^1.5) triangle pass.
LINEAR_METRICS = PAPER_METRICS[:5]
#: Families whose batch metrics include the triangle-based clustering
#: coefficient (the weighted family has no triangle metrics).
TRIANGLE_FAMILIES = ("core", "truss", "ecc")
#: Set-ups run at least this many times, and for half the run's seconds.
SETUPS = 3
#: Every k-th churn epoch is checked against a cold index.
CHURN_CHECK_EVERY = 5
#: ``objects`` share of the probe blend (``measure`` module) for set-ups,
#: which the pure-python edge-list parse leads, and for requests, which
#: mix numpy kernels with python glue (families overrides it).  Chosen on
#: the reference host from 10-20 recorded runs per workload as the share
#: that gave the narrowest spread of run medians; README has the table.
SETUP_OBJECTS_SHARE = 1.0
REQUEST_OBJECTS_SHARE = 0.3


class Timed:
    """Start, end and named intermediate timestamps of one timed block."""

    def __init__(self) -> None:
        self.start = self.end = 0.0
        self.marks: dict[str, float] = {}

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def since(self, name: str) -> float:
        return self.end - self.marks[name]

    def until(self, name: str) -> float:
        return self.marks[name] - self.start


class Run:
    """State of one workload run: clock, spans, failures, samples."""

    def __init__(self, args, manifest: dict) -> None:
        self.workload = args.workload
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.manifest = manifest
        self.dir = Path(manifest["dir"])
        self.params = manifest["params"]
        self.clock = HostClock()
        self.tracer = Tracer(args.workload)
        self.tracing = False
        self.root_slot: dict[int, tuple[int, float]] = {}
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.kernel_calls: list[float] = []
        self.detail: dict = {}
        self.warmup = False
        self.peak_heap_mb = 0.0
        #: ``objects`` share of the probe blend that normalises requests
        #: (``measure`` module).
        self.request_objects_share = REQUEST_OBJECTS_SHARE

    # -- spans and timing ------------------------------------------------
    def span(self, name: str, **attrs):
        """A layer span when the current block is traced, else a no-op."""
        return self.tracer.span(name, **attrs) if self.tracing else nullcontext()

    @contextmanager
    def timed(self, series: str, traced: bool, root: str = "request",
              objects_share: float | None = None, **attrs):
        """Time one block into ``series`` (``traced_<series>`` when traced),
        normalised with ``objects_share`` (default: the requests' share).

        Nothing is recorded during the warm-up request.
        """
        t = Timed()
        share = self.request_objects_share if objects_share is None else objects_share
        self.tracing = traced
        try:
            with self.tracer.span(root, **attrs) if traced else nullcontext() as sid:
                if traced:
                    self.root_slot[sid] = (self.clock.slot, share)
                t.start = time.perf_counter()
                yield t
                t.end = time.perf_counter()
        finally:
            self.tracing = False
        if not self.warmup:
            self.clock.record(("traced_" if traced else "") + series, t.seconds, share)

    def traced(self, i: int, group: int = 1) -> bool:
        """Whether request ``i`` is traced: every other group of requests."""
        return self.trace and (i // group) % 2 == 1

    # -- the request loop ------------------------------------------------
    def loop(self, request, *, probe_every: int, min_requests: int, max_requests=None) -> None:
        """Closed loop: run ``request(i)`` until ``seconds`` have passed.

        Request 0 is the warm-up: untimed, and in untraced runs measured
        for the request's peak heap.  ``tracemalloc`` slows a request up to
        tenfold, so traced runs, which do not report the heap, skip it.
        """
        if self.trace:
            min_requests *= 2
        self.warmup = True
        try:
            with nullcontext() if self.trace else self.heap_traced():
                self.attempt(request, 0, probe=False)
        finally:
            self.warmup = False
        deadline = time.perf_counter() + self.seconds
        i = 1
        while (i <= min_requests or time.perf_counter() < deadline) and (
            max_requests is None or i < max_requests
        ):
            self.attempt(request, i, probe=i == 1 or i % probe_every == 0)
            i += 1
        self.clock.probe()

    @contextmanager
    def heap_traced(self):
        """Peak heap (Python objects and numpy buffers) of the block."""
        tracemalloc.start()
        try:
            yield
        finally:
            self.peak_heap_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def attempt(self, request, i: int, probe: bool) -> None:
        """Run request ``i``; an exception counts it as failed."""
        # Garbage from the last request is freed outside the timed window.
        gc.collect()
        if probe:
            self.clock.probe()
        self.attempted += 1
        before = obs.counter_total("kernel.dispatch")
        try:
            request(i)
        except Exception:
            self.fail(i, traceback.format_exc(limit=4))
        self.kernel_calls.append(obs.counter_total("kernel.dispatch") - before)

    def fail(self, i: int, why: str) -> None:
        self.failed.add(i)
        if len(self.errors) < 8:
            self.errors.append(f"request {i}: {why.strip()}")

    def setups(self, setup):
        """Set up at least SETUPS times and for half of ``seconds``, timing each
        into ``setup_s``; returns the last set-up."""
        result = None
        count, deadline = 0, time.perf_counter() + self.seconds / 2
        while count < SETUPS or time.perf_counter() < deadline:
            result = None  # release the previous set-up before the next
            gc.collect()
            self.clock.probe()
            with self.timed("setup_s", self.trace, root="setup",
                            objects_share=SETUP_OBJECTS_SHARE):
                result = setup()
            count += 1
        return result

    def check_graph(self, i: int, graph, name: str = "graph") -> None:
        expected = self.manifest["graphs"][name]["csr_sha256"]
        if verify.csr_digest(graph.indptr, graph.indices) != expected:
            self.fail(i, f"parsed {name} differs from the generated edge list")

    # -- answers ---------------------------------------------------------
    def answers(self, index, family, metrics=None, params=None, problem2=False) -> dict:
        """Every answer of one request; per-layer calls when traced."""
        if self.tracing:
            return self._layered(index, family, metrics, params or {}, problem2)
        return direct_answers(index, family, metrics, params, problem2)

    def _layered(self, index, family, metrics, params, problem2) -> dict:
        span = self.span
        triangles = family in TRIANGLE_FAMILIES and (
            metrics is None or "clustering_coefficient" in metrics
        )
        with span("decomposition", family=family):
            index.artifact(family, "decompose", **params)
        with span("ordering", family=family):
            index.artifact(family, "levels", **params)
            index.artifact(family, "ordering", **params)
        with span("engine.primary", family=family):
            index.artifact(family, "totals", **params)
        with span("engine.levels", family=family):
            index.artifact(family, "level_totals", **params)
        if triangles:
            with span("engine.triangles", family=family):
                index.artifact(family, "triangles", **params)
                index.artifact(family, "level_triangles", **params)
        if problem2:
            with span("core.forest", family=family):
                index.artifact("core", "forest")
                index.artifact("core", "node_totals")
            if triangles:
                with span("engine.triangles", family=family):
                    index.artifact("core", "node_triangles")
        with span("engine.metrics", family=family):
            return direct_answers(index, family, metrics, params, problem2)


def direct_answers(index, family, metrics=None, params=None, problem2=False) -> dict:
    """Answers through the user-facing calls, keyed ``(family, problem, metric)``.

    ``metrics=None`` asks for the family's batch metrics.
    """
    params = params or {}
    if metrics is None:
        found = index.best_level_all_metrics(family, **params)
        answers = {(family, "P1", m): res for m, res in found.items()}
    else:
        answers = {(family, "P1", m): index.best_level(family, m, **params) for m in metrics}
    if problem2:
        answers.update({(family, "P2", m): index.best_core(m) for m in metrics})
    return answers


def python_reference(graph, family, metrics=None, params=None, problem2=False) -> dict:
    """Answer tuples of a cold index on the python reference backend."""
    index = BestKIndex(graph, store=False, backend="python")
    return verify.answer_tuples(direct_answers(index, family, metrics, params, problem2))


def compare(run: Run, requests: dict, reference: dict, what: str) -> None:
    """Count each request whose answer tuples differ from ``reference``."""
    for i, tuples in requests.items():
        bad = sorted(str(k) for k in reference if tuples.get(k) != reference[k])
        if bad or len(tuples) != len(reference):
            run.fail(i, f"{what} mismatch: {', '.join(bad[:3]) or 'answer set'}")


def coreness_digest(index) -> str:
    return verify.array_digest(index.artifact("core", "decompose").coreness)


def check_core_requests(run: Run, graph, seen: dict, cores: dict) -> None:
    """Check each request's 12 answers (python reference) and coreness (networkx)."""
    compare(run, seen, python_reference(graph, "core", PAPER_METRICS, problem2=True),
            "python reference")
    expected = verify.array_digest(verify.networkx_coreness(graph.indptr, graph.indices))
    for i, digest in cores.items():
        if digest != expected:
            run.fail(i, "coreness differs from networkx")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def static(run: Run) -> None:
    """Parse, then cold indexes answering both problems for six metrics."""
    def setup():
        with run.span("graph.io"):
            graph = load_edge_list(run.dir / "graph.txt").graph
        run.check_graph(-1, graph)
        return graph

    graph = run.setups(setup)
    seen: dict[int, dict] = {}
    cores: dict[int, str] = {}

    def request(i):
        with run.timed("latency_s", run.traced(i)):
            with run.span("index.init"):
                index = BestKIndex(graph, store=False)
            answers = run.answers(index, "core", PAPER_METRICS, problem2=True)
        seen[i] = verify.answer_tuples(answers)
        cores[i] = coreness_digest(index)

    run.loop(request, probe_every=1, min_requests=3)
    check_core_requests(run, graph, seen, cores)


def churn(run: Run) -> None:
    """Epochs of ``apply`` plus a Problem 1 re-query of the O(m) metrics."""
    data = np.load(run.dir / "deltas.npz")
    base, inserts, deletes = data["base"], data["insert"], data["delete"]
    cycle = run.params["delta_cycle"]
    sizes, deltas, offset = [], [], 0
    for e in range(run.params["max_epochs"]):
        s = cycle[e % len(cycle)]
        deltas.append(GraphDelta.from_edges(
            insert=inserts[offset:offset + s], delete=deletes[offset:offset + s]
        ))
        sizes.append(s)
        offset += s

    def setup():
        with run.span("graph.io"):
            loaded = load_edge_list(run.dir / "graph.txt")
        with run.span("index.init"):
            index = BestKIndex(loaded.graph, store=False)
        run.answers(index, "core", LINEAR_METRICS)
        run.check_graph(-1, loaded.graph)
        return index

    index = run.setups(setup)
    epochs: list[dict] = []
    checked: dict[int, tuple[str, dict]] = {}
    state = {}

    def request(i):
        traced = run.traced(i, len(cycle))
        with run.timed("latency_s", traced, delta=sizes[i]) as t:
            with run.span("dynamic.apply", delta=sizes[i]):
                result = index.apply(deltas[i], strict=False)
            t.mark("applied")
            answers = run.answers(index, "core", LINEAR_METRICS)
        epochs.append({
            "epoch": i, "delta": sizes[i], "traced": traced, "path": result.path,
            "reason": result.reason, "changed": result.changed,
            "apply_s": t.until("applied"), "latency_s": t.seconds,
        })
        if (result.inserted, result.deleted) != (len(deltas[i].insert), len(deltas[i].delete)):
            run.fail(i, f"delta not fully effective: {result}")
        tuples = verify.answer_tuples(answers)
        if (i + 1) % CHURN_CHECK_EVERY == 0:
            checked[i] = (verify.csr_digest(result.graph.indptr, result.graph.indices), tuples)
        state["last"] = (i, result.graph, tuples)

    run.loop(request, probe_every=len(cycle), min_requests=2 * len(cycle),
             max_requests=len(deltas))
    last, last_graph, last_tuples = state["last"]
    checked[last] = (verify.csr_digest(last_graph.indptr, last_graph.indices), last_tuples)
    final_core = index.artifact("core", "decompose").coreness
    done = np.cumsum(sizes)
    for i, (digest, tuples) in sorted(checked.items()):
        indptr, indices = snapshot(base, inserts[:done[i]], deletes[:done[i]])
        if verify.csr_digest(indptr, indices) != digest:
            run.fail(i, "snapshot differs from base + deltas")
            continue
        cold = BestKIndex(Graph(indptr, indices), store=False)
        compare(run, {i: tuples},
                verify.answer_tuples(direct_answers(cold, "core", LINEAR_METRICS)), "cold index")
        if i == last and not np.array_equal(final_core, verify.networkx_coreness(indptr, indices)):
            run.fail(i, "final coreness differs from networkx")
    run.detail["epochs"] = epochs


def snapshot(base, inserts, deletes) -> tuple[np.ndarray, np.ndarray]:
    """CSR of ``base`` plus ``inserts`` minus ``deletes``, built here."""
    def keyed(edges, n):
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        return lo * n + hi

    edges = np.concatenate([base, inserts])
    n = int(edges.max()) + 1
    keep = ~np.isin(keyed(edges, n), keyed(deletes, n))
    return verify.csr_arrays(edges[keep], n)


def warm(run: Run) -> None:
    """Restart requests against a store primed during set-up."""
    stores = Path(run.manifest["cache"]) / "stores" / str(os.getpid())
    shutil.rmtree(stores, ignore_errors=True)
    counter = itertools.count()

    def setup():
        store = stores / str(next(counter))
        with run.span("graph.io"):
            loaded = load_edge_list(run.dir / "graph.txt")
        with run.span("index.init"):
            index = BestKIndex(loaded.graph, store=store)
        run.answers(index, "core", PAPER_METRICS, problem2=True)
        run.check_graph(-1, loaded.graph)
        return loaded.graph, store

    try:
        graph, store = run.setups(setup)
        indptr, indices = np.array(graph.indptr), np.array(graph.indices)
        seen: dict[int, dict] = {}
        cores: dict[int, str] = {}
        hits, hydrate_share = [], []
        block = 10

        def request(i):
            traced = run.traced(i, block)
            with run.timed("latency_s", traced) as t:
                with run.span("graph.csr"):
                    g = Graph(indptr, indices)
                    g.content_digest()
                with run.span("index.init"):
                    index = BestKIndex(g, store=store)
                answers = run.answers(index, "core", PAPER_METRICS, problem2=True)
            built = index.built_artifacts()
            hits.append(sum(index.build_seconds[k] == 0.0 for k in built) / len(built))
            if traced:
                hydrate_share.append(index.hydrate_seconds / t.seconds)
            seen[i] = verify.answer_tuples(answers)
            cores[i] = coreness_digest(index)

        run.loop(request, probe_every=block, min_requests=2 * block)
    finally:
        shutil.rmtree(stores, ignore_errors=True)
    run.detail["store_hit_frac"] = hits
    run.detail["hydrate_share"] = hydrate_share
    check_core_requests(run, graph, seen, cores)


def families(run: Run) -> None:
    """truss + weighted on one index, then ecc on a small graph.

    The request runs in one process: on two vCPUs a ``jobs=2`` fan-out
    times the host's scheduler as much as the program.  Traced runs time
    the same truss + weighted work fanned out by ``jobs=2`` beside it.
    """
    # The request is pure-python dict and heap work (the truss and weighted
    # peels, the Stoer-Wagner sweep), which the ``objects`` probe tracks.
    run.request_objects_share = 1.0
    weights = np.load(run.dir / "weights.npy")
    wparams = {"edge_weights": weights, "num_levels": run.params["num_levels"]}

    def setup():
        with run.span("graph.io"):
            graph = load_edge_list(run.dir / "graph.txt").graph
            small = load_edge_list(run.dir / "ecc_graph.txt").graph
        run.check_graph(-1, graph)
        run.check_graph(-1, small, "ecc_graph")
        return graph, small

    graph, small = run.setups(setup)
    seen: dict[int, dict] = {}
    parallel: list[dict] = []

    def request(i):
        traced = run.traced(i)
        with run.timed("latency_s", traced) as t:
            with run.span("index.init"):
                index = BestKIndex(graph, store=False)
            answers = run.answers(index, "truss")
            t.mark("weighted")
            answers.update(run.answers(index, "weighted", params=wparams))
            t.mark("ecc")
            with run.span("index.init"):
                small_index = BestKIndex(small, store=False)
            answers.update(run.answers(small_index, "ecc"))
        family_s = {
            "truss": t.marks["weighted"] - t.start,
            "weighted": t.marks["ecc"] - t.marks["weighted"],
        }
        run.detail.setdefault("parts_s", []).append({**family_s, "ecc": t.since("ecc")})
        seen[i] = verify.answer_tuples(answers)
        if traced:
            parallel.append(fanned_out(run, graph, wparams, family_s))

    run.loop(request, probe_every=1, min_requests=3)
    run.detail["parallel"] = parallel
    reference = python_reference(graph, "truss")
    reference.update(python_reference(graph, "weighted", params=wparams))
    reference.update(python_reference(small, "ecc"))
    compare(run, seen, reference, "python reference")


def fanned_out(run: Run, graph, wparams: dict, family_s: dict) -> dict:
    """The request's truss + weighted work prebuilt by ``jobs=2`` (traced).

    ``family_s`` holds the serial seconds of each family in the request.
    """
    with run.timed("parallel_s", True, root="parallel") as t:
        with run.span("index.init"):
            index = BestKIndex(graph, store=False, jobs=2)
        with run.span("parallel.prebuild"):
            index.prebuild(("truss", "weighted"), family_params={"weighted": wparams})
        with run.span("engine.metrics"):
            direct_answers(index, "truss")
            direct_answers(index, "weighted", params=wparams)
    return {"jobs2_s": t.seconds, "serial_s": sum(family_s.values()), "family_s": family_s}


WORKLOADS = {
    "static-cl250k": static,
    "churn-cl250k": churn,
    "warm-cl250k": warm,
    "families-cl50k": families,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, normalised: bool = True) -> dict:
    """End-to-end metrics from the untraced samples (host-normalised or raw).

    ``latency_p90_ms`` is for the record only: it has ten samples beyond
    it only on warm; static and families time about ten requests per run,
    so there it is the slowest request or next to it.
    """
    series = run.clock.normalised if normalised else run.clock.raw
    latency = series("latency_s")
    return {
        "setup_s": median(series("setup_s")),
        "latency_p50_ms": median(latency) * 1e3,
        "peak_heap_mb": None if run.trace else run.peak_heap_mb,
        "latency_p90_ms": float(np.percentile(latency, 90)) * 1e3 if latency else 0.0,
    }


def raw_samples(run: Run) -> dict:
    names = ("setup_s", "latency_s", "traced_setup_s", "traced_latency_s", "traced_parallel_s")
    return {
        n: {"raw": run.clock.raw(n), "normalised": run.clock.normalised(n)}
        for n in names if run.clock.raw(n)
    }


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced requests.

    Returns the declared metrics and, for the record, the median self time
    per root of every ``<root>:<family>/<layer>`` triple.
    Busy times are host-normalised by the probes around their request.
    """
    spans = run.tracer.spans
    own = self_times(spans)
    roots = {s["id"]: s for s in spans if s["parent"] is None}

    def factor(root_id):
        return run.clock.scale(*run.root_slot[root_id])

    requests = {rid: r for rid, r in roots.items() if r["name"] == "request"}
    busy = {rid: defaultdict(float) for rid in requests}
    by_family = defaultdict(lambda: defaultdict(float))
    io = []
    for s in spans:
        if s["parent"] is None:
            continue
        seconds = own[s["id"]] * factor(s["request"])
        if s["request"] in busy:
            busy[s["request"]][s["name"]] += seconds
        family = s.get("attrs", {}).get("family")
        if family:
            root = roots[s["request"]]["name"]
            by_family[f"{root}:{family}/{s['name']}"][s["request"]] += seconds
        if s["name"] == "graph.io":
            io.append(seconds)
    span_s = {rid: (r["end"] - r["start"]) * factor(rid) for rid, r in requests.items()}

    def busy_ms(layer):
        return median(b[layer] for b in busy.values()) * 1e3

    def share(layer, rids=None):
        rids = list(busy) if rids is None else rids
        return median(busy[r][layer] / span_s[r] for r in rids)

    metrics = {
        "graph.io.busy_s": median(io),
        "graph.csr.share": share("graph.csr"),
        "decomposition.busy_ms": busy_ms("decomposition"),
        "ordering.busy_ms": busy_ms("ordering"),
        "engine.primary.busy_ms": busy_ms("engine.primary"),
        "engine.levels.busy_ms": busy_ms("engine.levels"),
        "engine.triangles.share": share("engine.triangles"),
        "core.forest.share": share("core.forest"),
        "engine.metrics.busy_ms": busy_ms("engine.metrics"),
        "dynamic.apply.share": share("dynamic.apply"),
        "trace.request_ms": median(span_s.values()) * 1e3,
        "kernels.calls": median(run.kernel_calls),
    }
    for size in sorted(set(DELTA_CYCLE)):
        rids = [r for r in busy if requests[r].get("attrs", {}).get("delta") == size]
        metrics[f"dynamic.apply.share.d{size}"] = share("dynamic.apply", rids)
    epochs = run.detail.get("epochs", [])
    for path in ("incremental", "batched", "rebuild"):
        metrics[f"dynamic.path.{path}"] = sum(e["path"] == path for e in epochs)
    metrics["dynamic.incremental_frac"] = (
        sum(e["path"] != "rebuild" for e in epochs) / len(epochs) if epochs else 0.0
    )
    metrics["dynamic.changed_vertices"] = sum(e["changed"] for e in epochs)
    metrics["index.store.hit_frac"] = median(run.detail.get("store_hit_frac", []))
    metrics["index.store.hydrate_share"] = median(run.detail.get("hydrate_share", []))
    par = run.detail.get("parallel", [])
    metrics["parallel.prebuild_s"] = median(run.clock.normalised("traced_parallel_s"))
    metrics["parallel.speedup"] = median(p["serial_s"] / p["jobs2_s"] for p in par)
    metrics["parallel.overhead_frac"] = median(
        (p["jobs2_s"] - max(p["family_s"].values())) / p["jobs2_s"] for p in par
    )
    all_roots = list(roots.values())
    metrics["trace.residual_frac"] = sum(own[r["id"]] for r in all_roots) / sum(
        r["end"] - r["start"] for r in all_roots
    )
    untraced = median(run.clock.normalised("latency_s"))
    traced = median(run.clock.normalised("traced_latency_s"))
    metrics["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    families = {k: median(v.values()) * 1e3 for k, v in sorted(by_family.items())}
    return metrics, {"family_layer_ms": families}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    manifest = json.loads(args.manifest.read_text())
    run = Run(args, manifest)
    WORKLOADS[args.workload](run)

    host = run.clock.host_summary()
    result = {
        "workload": run.workload,
        "seed": manifest["seed"],
        "trace": int(run.trace),
        "seconds": run.seconds,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "fail_frac": len(run.failed) / max(run.attempted, 1),
        "errors": run.errors,
        "metrics": end_to_end(run),
        "metrics_raw": end_to_end(run, normalised=False),
        "samples": raw_samples(run),
        "host": host,
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "detail": run.detail,
    }
    if run.trace:
        layers, breakdown = per_layer(run)
        for kind, suffix in (("numeric", ""), ("objects", "_objects")):
            layers[f"host.calib{suffix}_ms"] = host[kind]["calib_ms"]
            layers[f"host.drift{suffix}_frac"] = host[kind]["drift_frac"]
        result["layers"] = layers
        result["detail"].update(breakdown)
        if args.trace_dir:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            path = args.trace_dir / f"{run.workload}-s{manifest['seed']}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for s in sorted(run.tracer.spans, key=lambda s: s["start"]):
                    fh.write(json.dumps(s) + "\n")
            result["trace_file"] = str(path)
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
