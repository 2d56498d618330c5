"""End-to-end benchmark of the best-k system: four workloads, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py                  # every workload, untraced then traced
    python3 benchmarks/e2e/run.py --workload churn-cl250k --seed 3 --trace 0
    python3 benchmarks/e2e/run.py --smoke          # a few seconds per workload

Each (workload, mode) runs in a fresh ``child.py`` process with ``src`` on
``PYTHONPATH`` and every ``REPRO_*`` variable cleared, measuring for the
``run_seconds`` of ``BENCHMARK.json`` (one second under ``--smoke``).
Inputs are made from ``--seed`` and cached under ``.e2e_cache/``.  The
metrics printed, and their units, are the ones ``BENCHMARK.json`` declares:
``end_to_end`` for ``--trace 0`` and ``per_layer`` for ``--trace 1``;
``latency_p90_ms`` is printed beside them.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
request failed or any answer check found a wrong answer, 2 when the
program source or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
CACHE = ROOT / ".e2e_cache"
#: Wall-clock cap for one workload run, generation included.
RUN_TIMEOUT_S = 170.0


def child_env() -> tuple[dict, list[str]]:
    """Environment for a workload process, and the ``REPRO_*`` names removed."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, cleared


def run_child(workload: str, manifest: dict, args, seconds: float, trace: int,
              started: float) -> dict | None:
    """Run one workload process; returns its result, or ``None`` if it died."""
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    stem = tmp / f"{os.getpid()}-{workload}-{trace}"
    manifest_path, out_path = stem.with_suffix(".manifest.json"), stem.with_suffix(".out.json")
    manifest_path.write_text(json.dumps(manifest))
    out_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(CHILD), "--workload", workload,
        "--manifest", str(manifest_path), "--out", str(out_path),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if args.trace_dir:
        cmd += ["--trace-dir", str(args.trace_dir.resolve())]
    env, _ = child_env()
    timeout = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        manifest_path.unlink(missing_ok=True)
    # Standard output is reserved for the result lines of this process.
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0 or not out_path.exists():
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(out_path.read_text())
    out_path.unlink()
    return result


def declared(bench: dict, trace: int) -> list[dict]:
    return bench["per_layer"] if trace else bench["end_to_end"]


def selected_metrics(result: dict, bench: dict) -> dict:
    """The declared metrics of one run, each with its unit."""
    source = result["layers"] if result["trace"] else result["metrics"]
    return {
        m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]}
        for m in declared(bench, result["trace"])
    }


def report(result: dict, bench: dict) -> None:
    """Print every metric of one run by name, with its unit."""
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"fail_frac {result['fail_frac']:.4g}"
    )
    rows = selected_metrics(result, bench)
    if not result["trace"]:
        rows["latency_p90_ms"] = {"value": result["metrics"]["latency_p90_ms"], "unit": "ms"}
        rows["latency_samples"] = {"value": len(result["samples"]["latency_s"]["raw"]),
                                   "unit": "count"}
    for name, m in rows.items():
        print(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")
    for error in result["errors"]:
        print(f"   ! {error.splitlines()[-1]}")


def host_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the best-k system.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="accepted for harnesses that pass it; must equal run_seconds "
                             "of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--trace-dir", type=Path, help="write the spans of traced runs here")
    parser.add_argument("--record", type=Path, help="write one JSON record of every run here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, about a second each")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program source src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        print("error: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and args.seconds != bench["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds of BENCHMARK.json ({bench['run_seconds']})")
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    workloads = [args.workload] if args.workload else list(inputs.WORKLOADS)
    for w in workloads:
        if w not in inputs.WORKLOADS:
            parser.error(f"unknown workload {w!r}; choose from {', '.join(inputs.WORKLOADS)}")
    seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    modes = [args.trace] if args.trace is not None else [0, 1]

    results = []
    for workload in workloads:
        for trace in modes:
            started = time.monotonic()
            manifest = inputs.prepare(workload, args.seed, args.smoke, CACHE)
            manifest["cache"] = str(CACHE)
            result = run_child(workload, manifest, args, seconds, trace, started)
            if result is None:
                return 1
            result["inputs"] = {k: manifest[k] for k in ("params", "graphs", "files")}
            result["inputs"]["dir"] = os.path.relpath(manifest["dir"], ROOT)
            if "trace_file" in result:
                result["trace_file"] = os.path.relpath(result["trace_file"], ROOT)
            report(result, bench)
            results.append(result)

    if args.record:
        record = {
            "command": ["python3", "benchmarks/e2e/run.py", *(argv if argv is not None else sys.argv[1:])],
            "seed": args.seed,
            "seconds": seconds,
            "smoke": args.smoke,
            "host": host_facts(),
            "repro_env": {"cleared": True, "names": child_env()[1]},
            "runs": results,
        }
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")

    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    if len(results) == 1:
        metrics = selected_metrics(results[0], bench)
    else:
        metrics = {
            f"{r['workload']}/{name}": m
            for r in results for name, m in selected_metrics(r, bench).items()
        }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
