"""``repro.obs`` — zero-dependency structured tracing and metrics.

The observability seam of the package: hierarchical wall-clock **spans**,
label-aware monotonic **counters**, last-write-wins **gauges** and
log-bucketed latency **histograms** (``observe(name, value, **labels)``
with p50/p90/p99 extraction), backed by one process-wide
:class:`~repro.obs.recorder.Recorder` and pluggable sinks (the always-on
in-memory recorder, a JSONL trace writer, a Prometheus-style text
exposition including histogram ``_bucket``/``_sum``/``_count`` series).

This module is a *leaf*: it imports nothing from the rest of ``repro``
(``scripts/check_imports.py`` enforces it) and the rest of ``repro``
reaches it only through the engine/kernels/index seams — family
packages never import it directly.  Instrumentation never changes any
result; it only watches.

Quickstart::

    from repro import obs

    with obs.span("my:phase", n=graph.num_vertices) as sp:
        work()
        sp.set_attr("outcome", "ok")
    obs.add("my.counter", family="core")

    obs.configure_trace("trace.jsonl")     # or REPRO_TRACE=trace.jsonl
    print(obs.render_span_tree(obs.export_spans()))

Environment switches:

``REPRO_TRACE=<path>``
    Stream every completed span to ``<path>`` as JSON lines (appended; a
    cumulative counter snapshot per process lands on flush/exit).
``REPRO_OBS=0``
    Disable the recorder outright — the "instrumentation compiled out"
    baseline; spans become shared no-op context managers and counters
    early-return.  ``benchmarks/bench_obs.py`` holds the default
    (in-memory recording, no trace file) to <5% overhead against this.
"""

from __future__ import annotations

from .recorder import (
    BUCKET_BOUNDS,
    Capture,
    HistogramData,
    Recorder,
    SpanRecord,
    labels_key,
    merge_histogram_snapshots,
    parse_counter_key,
    render_counter_key,
    snapshot_percentile,
)
from .render import (
    histogram_digest,
    render_counter_table,
    render_histogram_table,
    render_span_tree,
    summary as _summary,
)
from .sinks import JsonlSink, configure_trace as _configure_trace, load_trace, prometheus_text

__all__ = [
    "BUCKET_BOUNDS",
    "Capture",
    "HistogramData",
    "JsonlSink",
    "Recorder",
    "SpanRecord",
    "add",
    "adopt_spans",
    "capture",
    "configure_trace",
    "counter",
    "counter_total",
    "counters",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "export_spans",
    "find_spans",
    "flush_sinks",
    "gauges",
    "get_recorder",
    "histogram",
    "histogram_digest",
    "histograms",
    "labels_key",
    "load_trace",
    "merge_counters",
    "merge_histogram_snapshots",
    "merge_histograms",
    "observe",
    "parse_counter_key",
    "percentile",
    "prometheus_text",
    "render_counter_key",
    "render_counter_table",
    "render_histogram_table",
    "render_span_tree",
    "reset",
    "set_gauge",
    "snapshot_percentile",
    "span",
    "spans",
    "summary",
]

#: The process-wide recorder every ``repro`` layer reports into.
_RECORDER = Recorder()


def get_recorder() -> Recorder:
    """The process-wide :class:`Recorder` singleton."""
    return _RECORDER


# -- thin module-level facade over the singleton ------------------------

def span(name: str, **attrs):
    """Open a span on the process recorder (``with obs.span(...) as sp``)."""
    return _RECORDER.span(name, **attrs)


def add(name: str, value: float = 1, **labels) -> None:
    """Increment a counter on the process recorder."""
    _RECORDER.add(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge on the process recorder."""
    _RECORDER.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    """Record one histogram observation on the process recorder."""
    _RECORDER.observe(name, value, **labels)


def histogram(name: str, **labels) -> dict | None:
    return _RECORDER.histogram(name, **labels)


def histograms() -> dict[str, dict]:
    return _RECORDER.histograms()


def percentile(name: str, q: float, **labels) -> float:
    return _RECORDER.percentile(name, q, **labels)


def merge_histograms(delta: dict) -> None:
    _RECORDER.merge_histograms(delta)


def counter(name: str, **labels) -> float:
    return _RECORDER.counter(name, **labels)


def counter_total(name: str) -> float:
    return _RECORDER.counter_total(name)


def counters() -> dict[str, float]:
    return _RECORDER.counters()


def gauges() -> dict[str, float]:
    return _RECORDER.gauges()


def spans():
    return _RECORDER.spans()


def find_spans(name: str):
    return _RECORDER.find_spans(name)


def current_span():
    return _RECORDER.current_span()


def export_spans() -> list[dict]:
    return _RECORDER.export_spans()


def adopt_spans(exported: list[dict]) -> int:
    return _RECORDER.adopt_spans(exported)


def merge_counters(delta: dict) -> None:
    _RECORDER.merge_counters(delta)


def capture() -> Capture:
    return _RECORDER.capture()


def enable() -> None:
    _RECORDER.enable()


def disable() -> None:
    _RECORDER.disable()


def enabled() -> bool:
    return _RECORDER.enabled


def reset() -> None:
    _RECORDER.reset()


def flush_sinks() -> None:
    _RECORDER.flush_sinks()


def configure_trace(path: str | None = None) -> JsonlSink | None:
    """Attach a JSONL trace sink (``path`` argument or ``$REPRO_TRACE``)."""
    return _configure_trace(_RECORDER, path)


def summary() -> dict:
    """Compact digest of the process recorder (for bench metadata)."""
    return _summary(_RECORDER)


# ``REPRO_TRACE`` activates the JSONL writer for any process importing the
# package — the CI trace leg and ad-hoc debugging both lean on this.
_configure_trace(_RECORDER)
