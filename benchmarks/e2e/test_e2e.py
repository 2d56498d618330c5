"""Self-test of the end-to-end benchmark, in ``--smoke`` mode.

Run from the repository root with ``python -m pytest benchmarks/e2e -q``
(it is outside the tier-1 ``testpaths``); it takes about half a minute.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: Replaces the python reference answers with a wrong one, then runs the
#: workload process as usual.
WRONG_REFERENCE = """
import sys
sys.path.insert(0, {here!r})
import child

_reference = child.python_reference


def wrong_reference(*args, **kwargs):
    answers = _reference(*args, **kwargs)
    key = sorted(answers)[0]
    k, score, vertices = answers[key]
    answers[key] = (k + 1, score, vertices)
    return answers


child.python_reference = wrong_reference
sys.exit(child.main())
"""


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace-dir", str(out / "traces"), "--record", str(out / "record.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    record = json.loads((out / "record.json").read_text())
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, record, last


def test_last_line_reports_a_correct_run(smoke):
    _, _, last = smoke
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0


def test_every_declared_metric_is_printed_with_its_unit(smoke):
    stdout, record, last = smoke
    assert {(r["workload"], r["trace"]) for r in record["runs"]} == {
        (w, t) for w in WORKLOADS for t in (0, 1)
    }
    for key in ("end_to_end", "per_layer"):
        for m in BENCH[key]:
            line = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
            assert len(re.findall(line, stdout, re.M)) == len(WORKLOADS), m["name"]
            for w in WORKLOADS:
                entry = last["metrics"][f"{w}/{m['name']}"]
                assert entry["unit"] == m["unit"]
                assert isinstance(entry["value"], float)
                if key == "end_to_end":
                    assert entry["value"] > 0, (w, m["name"])


def test_no_request_fails(smoke):
    _, record, _ = smoke
    for run in record["runs"]:
        assert run["fail_frac"] == 0, (run["workload"], run["errors"])
        assert run["repro_env"] == []


def test_spans_nest_and_explain_the_request(smoke):
    _, record, _ = smoke
    for run in (r for r in record["runs"] if r["trace"]):
        spans = [json.loads(line) for line in (ROOT / run["trace_file"]).read_text().splitlines()]
        assert spans, run["workload"]
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            assert s["workload"] == run["workload"]
            assert s["start"] <= s["end"]
            if s["parent"] is None:
                assert s["request"] == s["id"]
                continue
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["request"] == parent["request"]
        assert run["layers"]["trace.residual_frac"] < 0.05


def test_a_run_length_other_than_run_seconds_is_refused():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", str(BENCH["run_seconds"] + 1)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr


def test_a_wrong_reference_answer_is_counted_and_fails_the_run(tmp_path, monkeypatch, capsys):
    shim = tmp_path / "wrong_reference.py"
    shim.write_text(WRONG_REFERENCE.format(here=str(HERE)))
    monkeypatch.syspath_prepend(str(HERE))
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "CHILD", shim)

    code = run.main(["--smoke", "--workload", "static-cl250k", "--trace", "0"])

    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0
