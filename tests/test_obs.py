"""The ``repro.obs`` tracing layer: invariants before features.

The contract under test, in order of importance:

* **Invariance** — tracing on, off, or disabled entirely never changes a
  single bit of any result, for every registered family.
* **Structure** — spans nest by runtime call structure, including spans
  recorded in pool workers and shipped back inside the result tuples.
* **Accuracy** — counters equal ground truth (a backend that counts its
  own calls), store anomalies land on distinctly-labelled counters with a
  warning, and serial degradation of the pool is visible with a reason.
* **Round-trip** — a JSONL trace file replays to the same spans/counters.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest
from conftest import random_graph

from repro import obs
from repro.engine import best_level_set, get_family
from repro.index import ArtifactStore, BestKIndex
from repro.kernels import NumpyBackend, _REGISTRY, register_backend
from repro.obs import JsonlSink, Recorder, load_trace, prometheus_text
from repro.index.worker import parallel_map


@pytest.fixture(autouse=True)
def clean_recorder():
    """Each test starts from an empty, enabled process recorder."""
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.enable()


@pytest.fixture()
def graph():
    return random_graph(60, 220, seed=11)


# ----------------------------------------------------------------------
# Recorder basics
# ----------------------------------------------------------------------

class TestRecorder:
    def test_span_nesting_and_attrs(self):
        with obs.span("outer", n=3) as outer:
            with obs.span("inner") as inner:
                inner.set_attr("hit", True)
        # Spans land in completion order: inner closes before outer.
        spans = {s.name: s for s in obs.spans()}
        assert [s.name for s in obs.spans()] == ["inner", "outer"]
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].attrs["n"] == 3 and spans["inner"].attrs["hit"] is True
        assert spans["outer"].duration >= spans["inner"].duration >= 0.0

    def test_counters_are_label_aware(self):
        obs.add("c", family="core")
        obs.add("c", 2, family="truss")
        obs.add("c", family="core")
        assert obs.counter("c", family="core") == 2
        assert obs.counter("c", family="truss") == 2
        assert obs.counter_total("c") == 4

    def test_disable_records_nothing(self):
        obs.disable()
        with obs.span("ghost") as sp:
            sp.set_attr("x", 1)  # the null span absorbs attrs silently
            obs.add("ghost.counter")
        assert not obs.spans() and not obs.counters()
        obs.enable()
        with obs.span("real"):
            pass
        assert [s.name for s in obs.spans()] == ["real"]

    def test_capture_extracts_and_reverts(self):
        obs.add("kept")
        with obs.span("kept-span"):
            pass
        with obs.capture() as cap:
            with obs.span("shipped"):
                obs.add("shipped.counter", worker="w")
        # The capture window left nothing behind in the recorder...
        assert [s.name for s in obs.spans()] == ["kept-span"]
        assert obs.counters() == {"kept": 1}
        # ...because it was extracted into portable plain data.
        assert [s["name"] for s in cap.spans] == ["shipped"]
        # Counter deltas keep the internal (name, labels) tuple keys —
        # picklable, and exactly what merge_counters consumes.
        assert cap.counters == {("shipped.counter", (("worker", "w"),)): 1}
        # Adoption is the single re-entry point, nesting under the caller.
        with obs.span("parent"):
            obs.adopt_spans(cap.spans)
            obs.merge_counters(cap.counters)
        by_name = {s.name: s for s in obs.spans()}
        assert by_name["shipped"].parent_id == by_name["parent"].span_id
        assert obs.counter("shipped.counter", worker="w") == 1


# ----------------------------------------------------------------------
# Invariance: tracing never changes results
# ----------------------------------------------------------------------

def _family_params(name, graph):
    if name == "weighted":
        rng = np.random.default_rng(5)
        return {
            "edge_weights": rng.lognormal(size=graph.num_edges),
            "num_levels": 16,
        }
    return {}


class TestInvariance:
    @pytest.mark.parametrize("family", ["core", "truss", "weighted", "ecc"])
    def test_results_bit_identical_tracing_on_vs_off(self, graph, family):
        params = _family_params(family, graph)
        traced = best_level_set(graph, family, **params)
        assert obs.spans(), "tracing was supposed to be on"
        obs.disable()
        plain = best_level_set(graph, family, **params)
        obs.enable()
        assert traced.k == plain.k
        assert np.array_equal(
            traced.scores.scores, plain.scores.scores, equal_nan=True
        )
        assert np.array_equal(traced.vertices, plain.vertices)

    def test_problem2_bit_identical(self, graph):
        from repro.core import best_single_kcore

        traced = best_single_kcore(graph, "average_degree")
        obs.disable()
        plain = best_single_kcore(graph, "average_degree")
        obs.enable()
        assert (traced.k, traced.score) == (plain.k, plain.score)
        assert np.array_equal(traced.vertices, plain.vertices)

    def test_phase_seconds_unaffected_by_disable(self, graph):
        obs.disable()
        index = BestKIndex(graph, jobs=1, store=False)
        index.best_set("average_degree")
        obs.enable()
        phases = index.phase_seconds("core")
        assert phases["decompose"] > 0.0  # timing path runs without obs


# ----------------------------------------------------------------------
# Structure: nesting across process boundaries
# ----------------------------------------------------------------------

class TestPoolSpans:
    def test_prebuild_adopts_worker_spans(self, graph):
        index = BestKIndex(graph, jobs=2, store=False)
        index.prebuild(("core", "truss"), problem2=True)
        by_name = {}
        for s in obs.spans():
            by_name.setdefault(s.name, []).append(s)
        (prebuild,) = by_name["index:prebuild"]
        workers = by_name["worker:build"]
        assert len(workers) >= 2  # one per planned task, shipped back
        assert {w.parent_id for w in workers} == {prebuild.span_id}
        # Worker-local children (index:build under worker:build) survive
        # the pickle round-trip with their nesting intact.
        worker_ids = {w.span_id for w in workers}
        nested = [s for s in by_name["index:build"] if s.parent_id in worker_ids]
        assert nested, "worker-local build spans should nest under worker:build"
        # pool.task counters shipped from the children too.
        assert obs.counter_total("pool.task") == len(workers)
        pmap = by_name["parallel:map"][0]
        if pmap.attrs.get("mode") == "pool":
            assert len({w.attrs["pid"] for w in workers}) == 2

    def test_pool_prebuild_results_match_serial(self, graph):
        par = BestKIndex(graph, jobs=2, store=False)
        par.prebuild(("core",))
        obs.disable()
        ser = BestKIndex(graph, jobs=1, store=False)
        obs.enable()
        for metric in ("average_degree", "clustering_coefficient"):
            a, b = par.best_set(metric), ser.best_set(metric)
            assert (a.k, a.score) == (b.k, b.score)


# ----------------------------------------------------------------------
# Accuracy: counters vs ground truth
# ----------------------------------------------------------------------

class _CountingBackend(NumpyBackend):
    name = "obs-counting"

    def __init__(self):
        super().__init__()
        self.calls: dict[str, int] = {}

    def _bump(self, kernel):
        self.calls[kernel] = self.calls.get(kernel, 0) + 1

    def peel_coreness(self, graph):
        self._bump("peel_coreness")
        return super().peel_coreness(graph)

    def triangle_charges(self, *a, **kw):
        self._bump("triangle_charges")
        return super().triangle_charges(*a, **kw)


class TestKernelCounters:
    def test_dispatch_counter_matches_backend_truth(self, graph):
        backend = _CountingBackend()
        register_backend(backend, overwrite=True)
        try:
            index = BestKIndex(graph, backend="obs-counting", jobs=1, store=False)
            index.best_set("average_degree")
            index.best_set("clustering_coefficient")
            for kernel, truth in backend.calls.items():
                assert (
                    obs.counter("kernel.dispatch", backend="obs-counting", kernel=kernel)
                    == truth
                )
            assert backend.calls["peel_coreness"] == 1
        finally:
            _REGISTRY.pop("obs-counting", None)

    def test_instrumentation_is_idempotent(self):
        backend = _CountingBackend()
        register_backend(backend, overwrite=True)
        try:
            first = backend.peel_coreness
            register_backend(backend, overwrite=True)
            assert backend.peel_coreness is first  # no wrapper stacking
        finally:
            _REGISTRY.pop("obs-counting", None)


# ----------------------------------------------------------------------
# Accuracy: store anomalies and pool degradation
# ----------------------------------------------------------------------

class TestStoreAnomalies:
    def _seed(self, graph, store):
        index = BestKIndex(graph, jobs=1, store=store)
        index.best_set("average_degree")
        return store.bundles()[0].path

    def _reload(self, graph, store):
        BestKIndex(graph, jobs=1, store=store).best_set("average_degree")

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda b: (b / "meta.json").write_text("{not json"), "corrupt_manifest"),
            (
                lambda b: sorted(b.glob("*.bin"))[0].write_bytes(
                    sorted(b.glob("*.bin"))[0].read_bytes()[:40]
                ),
                "corrupt_array",
            ),
            (lambda b: sorted(b.glob("*.bin"))[0].unlink(), "missing_field"),
            (
                # Three stray int64 values after the last field.
                lambda b: sorted(b.glob("*.bin"))[0].write_bytes(
                    sorted(b.glob("*.bin"))[0].read_bytes() + np.arange(3).tobytes()
                ),
                "shape_mismatch",
            ),
        ],
    )
    def test_each_discard_path_is_classified(
        self, graph, tmp_path, caplog, mutate, reason
    ):
        store = ArtifactStore(tmp_path / "cache")
        bundle = self._seed(graph, store)
        mutate(bundle)
        with caplog.at_level(logging.WARNING, logger="repro.index.store"):
            self._reload(graph, store)
        assert obs.counter("store.discard", family="core", reason=reason) == 1
        assert any(
            "discarding artifact bundle" in r.getMessage()
            and bundle.name in r.getMessage()
            for r in caplog.records
        )

    def test_hit_and_miss_counters(self, graph, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        self._seed(graph, store)
        assert obs.counter_total("store.miss") >= 1  # the cold first probe
        hits_before = obs.counter("store.hit", family="core")
        self._reload(graph, store)
        assert obs.counter("store.hit", family="core") == hits_before + 1
        assert obs.counter_total("store.discard") == 0
        assert obs.counter_total("store.persist") >= 1


class TestDegradationReasons:
    def test_one_worker(self):
        assert parallel_map(abs, [-1, -2], jobs=1) == [1, 2]
        assert obs.counter("parallel.map", mode="serial", degraded="one_worker") == 1

    def test_one_task(self):
        assert parallel_map(abs, [-3], jobs=4) == [3]
        assert obs.counter("parallel.map", mode="serial", degraded="one_task") == 1
        (sp,) = obs.find_spans("parallel:map")
        assert sp.attrs["degraded"] == "one_task"


# ----------------------------------------------------------------------
# Round-trip: JSONL trace files
# ----------------------------------------------------------------------

class TestJsonlRoundTrip:
    def test_spans_and_counters_replay(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = Recorder()
        rec.add_sink(JsonlSink(path))
        with rec.span("outer", n=7):
            with rec.span("inner"):
                rec.add("events", kind="x")
        rec.add("events", 2, kind="y")
        rec.set_gauge("workers", 4)
        rec.flush_sinks()
        rec.close_sinks()

        data = load_trace(path)
        names = {s["name"]: s for s in data["spans"]}
        assert set(names) == {"outer", "inner"}
        assert names["inner"]["parent"] == names["outer"]["id"]
        assert names["outer"]["attrs"]["n"] == 7
        assert data["counters"] == {"events{kind=x}": 1, "events{kind=y}": 2}
        assert data["gauges"] == {"workers": 4}
        # Every line on disk is valid standalone JSON (appendable format).
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_multi_flush_keeps_last_snapshot_per_pid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = Recorder()
        rec.add_sink(JsonlSink(path))
        rec.add("events")
        rec.flush_sinks()
        rec.add("events")
        rec.flush_sinks()
        rec.close_sinks()
        # Cumulative snapshots: the later one wins, no double counting.
        assert load_trace(path)["counters"] == {"events": 2}

    def test_prometheus_text_from_trace(self, tmp_path):
        text = prometheus_text({"kernel.dispatch{backend=numpy}": 3}, {"w": 2})
        assert 'repro_kernel_dispatch_total{backend="numpy"} 3' in text
        assert "# TYPE repro_w gauge" in text


# ----------------------------------------------------------------------
# Bench metadata and env kill switch
# ----------------------------------------------------------------------

class TestIntegrationSurface:
    def test_execution_metadata_carries_obs_summary(self, graph):
        from repro.bench.harness import execution_metadata

        BestKIndex(graph, jobs=1, store=False).best_set("average_degree")
        meta = execution_metadata(jobs=1)
        assert meta["obs"]["enabled"] is True
        assert meta["obs"]["spans"] > 0
        assert any(k.startswith("kernel.dispatch") for k in meta["obs"]["counters"])

    def test_repro_obs_env_kill_switch(self):
        import subprocess
        import sys

        code = (
            "from repro import obs\n"
            "with obs.span('x'):\n"
            "    obs.add('c')\n"
            "assert not obs.enabled()\n"
            "assert not obs.spans() and not obs.counters()\n"
            "print('ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_OBS": "0", "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, cwd="/root/repo",
        )
        assert out.returncode == 0 and out.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------

from repro.obs import (  # noqa: E402  (grouped with the tests that use them)
    BUCKET_BOUNDS,
    merge_histogram_snapshots,
    snapshot_percentile,
)
from repro.obs.recorder import OVERFLOW_BUCKET, bucket_index  # noqa: E402


class TestHistogramBuckets:
    def test_bounds_are_log_spaced_eight_per_decade(self):
        step = 10.0 ** (1.0 / 8.0)
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi / lo == pytest.approx(step, rel=1e-12)
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-7)
        assert BUCKET_BOUNDS[-1] == pytest.approx(1e3)

    def test_boundary_values_use_le_semantics(self):
        # A value landing exactly on a bound belongs to that bound's bucket.
        for i in (0, 1, 10, 40, len(BUCKET_BOUNDS) - 1):
            assert bucket_index(BUCKET_BOUNDS[i]) == i
        # Just above a bound spills into the next bucket up.
        assert bucket_index(BUCKET_BOUNDS[10] * 1.000001) == 11
        # Zero and negatives clamp into the first bucket; beyond the last
        # bound goes to the overflow bucket.
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(BUCKET_BOUNDS[-1] * 2) == OVERFLOW_BUCKET

    def test_snapshot_bucket_keys_are_bucket_indices(self):
        for i in (0, 10, 40):
            obs.observe("h.seconds", BUCKET_BOUNDS[i])
        obs.observe("h.seconds", BUCKET_BOUNDS[-1] * 10)  # overflow
        snap = obs.histogram("h.seconds")
        assert snap["buckets"] == {"0": 1, "10": 1, "40": 1, str(OVERFLOW_BUCKET): 1}
        assert snap["count"] == 4
        assert snap["min"] == BUCKET_BOUNDS[0]
        assert snap["max"] == BUCKET_BOUNDS[-1] * 10


class TestHistogramPercentiles:
    def test_constant_stream_recovers_exactly(self):
        for _ in range(100):
            obs.observe("h.seconds", 0.0123)
        for q in (0.5, 0.9, 0.99):
            # min == max, so the clamp makes every percentile exact even
            # though 0.0123 is not a bucket bound.
            assert obs.percentile("h.seconds", q) == 0.0123

    def test_two_value_stream_percentiles(self):
        lo, hi = BUCKET_BOUNDS[20], BUCKET_BOUNDS[60]
        for _ in range(90):
            obs.observe("h.seconds", lo)
        for _ in range(10):
            obs.observe("h.seconds", hi)
        assert obs.percentile("h.seconds", 0.50) == lo
        assert obs.percentile("h.seconds", 0.90) == lo   # rank 90 is the last lo
        assert obs.percentile("h.seconds", 0.99) == hi
        assert obs.percentile("h.seconds", 1.00) == hi

    def test_percentile_error_bounded_by_bucket_width(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(mean=-6.0, sigma=1.0, size=500)
        for v in values:
            obs.observe("h.seconds", float(v))
        step = 10.0 ** (1.0 / 8.0)
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            got = obs.percentile("h.seconds", q)
            assert exact / step <= got <= exact * step

    def test_labels_separate_series(self):
        obs.observe("h.seconds", 0.001, kernel="a")
        obs.observe("h.seconds", 0.1, kernel="b")
        assert obs.percentile("h.seconds", 0.5, kernel="a") == 0.001
        assert obs.percentile("h.seconds", 0.5, kernel="b") == 0.1
        assert set(obs.histograms()) == {
            "h.seconds{kernel=a}", "h.seconds{kernel=b}",
        }

    def test_empty_histogram_percentile_is_zero(self):
        assert obs.percentile("nope", 0.5) == 0.0
        assert obs.histogram("nope") is None


class TestHistogramRoundTrip:
    def test_jsonl_round_trip_preserves_percentiles(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for i in range(50):
            obs.observe("h.seconds", BUCKET_BOUNDS[10 + (i % 3)], kernel="peel")
        sink = JsonlSink(path)
        obs.get_recorder().add_sink(sink)
        sink.flush(obs.get_recorder())
        obs.get_recorder().remove_sink(sink)
        sink.close()

        data = load_trace(path)
        key = "h.seconds{kernel=peel}"
        assert data["histograms"][key] == obs.histogram("h.seconds", kernel="peel")
        for q in (0.5, 0.9, 0.99):
            assert snapshot_percentile(data["histograms"][key], q) == (
                obs.percentile("h.seconds", q, kernel="peel")
            )

    def test_load_trace_sums_distinct_pids(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        snap = {"buckets": {"10": 3}, "count": 3, "sum": 0.3, "min": 0.1, "max": 0.1}
        lines = [
            {"type": "counters", "pid": 1, "counters": {}, "gauges": {},
             "histograms": {"h.seconds": dict(snap, buckets={"10": 3})}},
            # Cumulative per pid: the later snapshot of pid 1 must win...
            {"type": "counters", "pid": 1, "counters": {}, "gauges": {},
             "histograms": {"h.seconds": {"buckets": {"10": 5}, "count": 5,
                                          "sum": 0.5, "min": 0.1, "max": 0.1}}},
            # ...and a distinct pid's series must sum on top.
            {"type": "counters", "pid": 2, "counters": {}, "gauges": {},
             "histograms": {"h.seconds": {"buckets": {"10": 2, "12": 1},
                                          "count": 3, "sum": 0.4,
                                          "min": 0.05, "max": 0.2}}},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        merged = load_trace(path)["histograms"]["h.seconds"]
        assert merged["buckets"] == {"10": 7, "12": 1}
        assert merged["count"] == 8
        assert merged["sum"] == pytest.approx(0.9)
        assert merged["min"] == 0.05 and merged["max"] == 0.2

    def test_prometheus_exposition_is_cumulative(self):
        obs.observe("h.seconds", BUCKET_BOUNDS[10], kernel="peel")
        obs.observe("h.seconds", BUCKET_BOUNDS[10], kernel="peel")
        obs.observe("h.seconds", BUCKET_BOUNDS[12], kernel="peel")
        obs.observe("h.seconds", BUCKET_BOUNDS[-1] * 5, kernel="peel")  # +Inf
        text = prometheus_text(recorder=obs.get_recorder())
        lines = [l for l in text.splitlines() if l.startswith("repro_h_seconds")]
        le10 = f"{BUCKET_BOUNDS[10]:.9g}"
        le12 = f"{BUCKET_BOUNDS[12]:.9g}"
        assert f'repro_h_seconds_bucket{{kernel="peel",le="{le10}"}} 2' in lines
        assert f'repro_h_seconds_bucket{{kernel="peel",le="{le12}"}} 3' in lines
        assert 'repro_h_seconds_bucket{kernel="peel",le="+Inf"} 4' in lines
        assert lines.count('repro_h_seconds_bucket{kernel="peel",le="+Inf"} 4') == 1
        assert 'repro_h_seconds_count{kernel="peel"} 4' in lines
        assert "# TYPE repro_h_seconds histogram" in text

    def test_merge_histogram_snapshots_counts_sum(self):
        into = {"buckets": {"3": 2}, "count": 2, "sum": 0.2, "min": 0.1, "max": 0.1}
        merge_histogram_snapshots(
            into,
            {"buckets": {"3": 1, "7": 4}, "count": 5, "sum": 1.0,
             "min": 0.01, "max": 0.5},
        )
        assert into["buckets"] == {"3": 3, "7": 4}
        assert into["count"] == 7 and into["sum"] == pytest.approx(1.2)
        assert into["min"] == 0.01 and into["max"] == 0.5


class TestHistogramShipping:
    def test_capture_extracts_and_reverts_histograms(self):
        obs.observe("h.seconds", 0.01, kind="kept")
        with obs.capture() as cap:
            obs.observe("h.seconds", 0.02, kind="kept")
            obs.observe("h.seconds", 0.03, kind="shipped")
        # The window's observations were reverted from the recorder...
        assert obs.histogram("h.seconds", kind="kept")["count"] == 1
        assert obs.histogram("h.seconds", kind="shipped") is None
        # ...and extracted as plain data keyed like counters.
        deltas = {k: v["count"] for k, v in cap.histograms.items()}
        assert deltas == {
            ("h.seconds", (("kind", "kept"),)): 1,
            ("h.seconds", (("kind", "shipped"),)): 1,
        }
        # Merging is the single re-entry point; counts are bit-accurate.
        obs.merge_histograms(cap.histograms)
        assert obs.histogram("h.seconds", kind="kept")["count"] == 2
        assert obs.histogram("h.seconds", kind="shipped")["count"] == 1

    def test_serial_fallback_never_double_records(self):
        # Simulate a pool degrading to in-process execution: the worker
        # body runs inside the parent recorder, captures, and the parent
        # merges the shipped delta — each observation must count once.
        def worker_body():
            with obs.capture() as cap:
                obs.observe("kernel.seconds", 0.005, backend="numpy", kernel="k")
            return cap.histograms

        shipped = worker_body()
        obs.merge_histograms(shipped)
        snap = obs.histogram("kernel.seconds", backend="numpy", kernel="k")
        assert snap["count"] == 1

    def test_prebuild_ships_worker_histograms(self, graph):
        # jobs=2 prebuild: kernel latencies observed in pool workers (or
        # in-process on serial degrade) must land in the parent recorder,
        # with histogram counts exactly matching the dispatch counters.
        index = BestKIndex(graph, jobs=2, store=False)
        index.prebuild(("core",), problem2=True)
        hists = obs.histograms()
        kernel_hists = {k: v for k, v in hists.items() if k.startswith("kernel.seconds")}
        assert kernel_hists, "no kernel latencies recorded"
        for key, snap in kernel_hists.items():
            counter_key = key.replace("kernel.seconds", "kernel.dispatch")
            assert snap["count"] == obs.counters()[counter_key]

    def test_sharded_rounds_observe_latencies(self, graph, tmp_path):
        from repro.external import semi_external_core_numbers, write_edge_npy

        path = write_edge_npy(graph.edge_array(), tmp_path / "edges.npy")
        result = semi_external_core_numbers(path, backend="numpy")
        snap = obs.histogram("external.round_seconds")
        assert snap is not None and snap["count"] == result.rounds


class TestHistogramRendering:
    def test_render_table_and_digest(self):
        from repro.obs import histogram_digest, render_histogram_table

        for _ in range(10):
            obs.observe("h.seconds", 0.002, kernel="peel")
        table = render_histogram_table(obs.histograms())
        assert "h.seconds{kernel=peel}" in table
        assert "p50" in table and "p99" in table
        digest = histogram_digest(obs.histograms())
        assert digest["h.seconds{kernel=peel}"]["count"] == 10
        assert digest["h.seconds{kernel=peel}"]["p50"] == pytest.approx(0.002)
        assert render_histogram_table({}) == "(no histograms recorded)"

    def test_summary_carries_histogram_digest(self):
        obs.observe("h.seconds", 0.5)
        summary = obs.summary()
        assert summary["histograms"]["h.seconds"]["count"] == 1
