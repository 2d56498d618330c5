"""The closed-loop scenario harness: registry, runner, sentinel, CLI.

The harness's own contract, in order of importance:

* **Coverage** — the built-in catalogue spans all four families, all
  three backends, both engines, a parallel prebuild, a cache scenario
  and a dynamic delta stream (the acceptance axes of the harness).
* **Closed loop** — a scenario record only exists if its answer was
  verified bit-identical against the reference execution; records carry
  the latency histograms the run observed.
* **Sentinel** — an injected 2x slowdown is flagged, a clean re-run
  passes, structural drift (missing scenario, schema mismatch) fails
  even in structure-only mode.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ReproError, ScenarioMismatchError
from repro.scenarios import (
    ABS_FLOOR_SECONDS,
    REL_THRESHOLD,
    SCHEMA_VERSION,
    Scenario,
    available_scenarios,
    baseline_from_results,
    compare_results,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    run_suite,
)


@pytest.fixture(autouse=True)
def clean_recorder():
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.enable()


#: A tiny scenario the runner tests execute in well under a second.
TINY = Scenario(
    name="tiny-core",
    generator="gnm",
    generator_args={"num_vertices": 80, "num_edges": 280, "seed": 3},
    family="core",
    backend="numpy",
    repeats=2,
)

TINY_DYNAMIC = Scenario(
    name="tiny-dynamic",
    generator="gnm",
    generator_args={"num_vertices": 80, "num_edges": 280, "seed": 3},
    family="core",
    backend="numpy",
    delta_stream=2,
    repeats=2,
)


class TestRegistry:
    def test_builtin_catalogue_covers_the_axes(self):
        scenarios = iter_scenarios()
        assert len(scenarios) >= 12
        assert {s.family for s in scenarios} == {"core", "truss", "weighted", "ecc"}
        assert {s.backend for s in scenarios} >= {"python", "numpy", "native"}
        assert any(s.jobs > 1 for s in scenarios)
        assert any(s.cache for s in scenarios)
        assert any(s.delta_stream for s in scenarios)

    def test_quick_subset_is_smaller_and_still_covers_families(self):
        quick = iter_scenarios(quick=True)
        assert 0 < len(quick) < len(iter_scenarios())
        assert {s.family for s in quick} == {"core", "truss", "weighted", "ecc"}

    def test_get_and_only_selection(self):
        assert get_scenario("core-cl-numpy").family == "core"
        picked = iter_scenarios(only=("truss-ws-numpy", "core-cl-numpy"))
        assert [s.name for s in picked] == ["truss-ws-numpy", "core-cl-numpy"]
        with pytest.raises(ReproError, match="unknown scenario"):
            get_scenario("nope")

    def test_register_rejects_duplicates_and_bad_generators(self):
        name = available_scenarios()[0]
        with pytest.raises(ReproError, match="already registered"):
            register_scenario(get_scenario(name))
        with pytest.raises(ReproError, match="unknown generator"):
            register_scenario(Scenario(name="x", generator="nope"))


class TestRunner:
    def test_record_shape_and_verification(self):
        record = run_scenario(TINY)
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["scenario"] == "tiny-core"
        assert record["verified"] is True
        assert record["reference_backend"] == "python"
        assert record["n"] == 80 and record["m"] > 0
        wall = record["wall_seconds"]
        assert len(wall["runs"]) == 2
        assert wall["min"] <= wall["median"]
        assert record["answer"]["k"] >= 1
        # The run's latency histograms travel in the record.
        assert any(k.startswith("kernel.seconds") for k in record["histograms"])
        assert any(k.startswith("index.score_seconds") for k in record["histograms"])
        assert record["execution"]["obs"]["spans"] > 0

    def test_dynamic_scenario_verifies_maintained_coreness(self):
        record = run_scenario(TINY_DYNAMIC)
        assert record["verified"] is True
        assert any(
            k.startswith("dynamic.maintain_seconds") for k in record["histograms"]
        )

    def test_repeats_override(self):
        record = run_scenario(TINY, repeats=1)
        assert len(record["wall_seconds"]["runs"]) == 1

    def test_mismatch_refuses_to_record(self, monkeypatch):
        import repro.scenarios.runner as runner_mod

        real = runner_mod.best_level_set

        def skewed_reference(*args, **kwargs):
            result = real(*args, **kwargs)
            return type(result)(
                **{**result.__dict__, "k": result.k + 1}
            )

        monkeypatch.setattr(runner_mod, "best_level_set", skewed_reference)
        with pytest.raises(ScenarioMismatchError, match="best k"):
            run_scenario(TINY, repeats=1)

    def test_run_suite_only(self):
        register_scenario(TINY, overwrite=True)
        report = run_suite(only=("tiny-core",), repeats=1)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["scenario_count"] == 1
        assert report["results"][0]["scenario"] == "tiny-core"


def _report(**minima) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "results": [
            {
                "scenario": name,
                "verified": True,
                "n": 100,
                "m": 400,
                "wall_seconds": {"min": seconds, "median": seconds},
            }
            for name, seconds in minima.items()
        ],
    }


class TestSentinel:
    def test_clean_rerun_passes(self):
        baseline = baseline_from_results(_report(a=0.1, b=0.5))
        comparison = compare_results(_report(a=0.11, b=0.48), baseline)
        assert comparison.passed
        assert {c.status for c in comparison.comparisons} == {"ok"}

    def test_injected_2x_slowdown_is_flagged(self):
        baseline = baseline_from_results(_report(a=0.1, b=0.5))
        comparison = compare_results(_report(a=0.1, b=1.0), baseline)
        assert not comparison.passed
        assert [c.scenario for c in comparison.regressions] == ["b"]
        assert "FAIL" in comparison.render()

    def test_absolute_floor_forgives_microsecond_jitter(self):
        # 3x slower but only 2ms absolute: noise, not a regression.
        baseline = baseline_from_results(_report(a=0.001))
        comparison = compare_results(_report(a=0.003), baseline)
        assert comparison.passed

    def test_both_gates_must_trip(self):
        # Large absolute delta but tiny ratio: not a regression either.
        baseline = baseline_from_results(_report(a=10.0))
        comparison = compare_results(_report(a=10.5), baseline)
        assert comparison.passed
        # Ratio and absolute both over: regression.
        comparison = compare_results(
            _report(a=10.5), baseline, rel_threshold=0.01, abs_floor=0.1
        )
        assert not comparison.passed

    def test_improvement_and_new_are_not_failures(self):
        baseline = baseline_from_results(_report(a=1.0))
        comparison = compare_results(_report(a=0.3, b=0.1), baseline)
        assert comparison.passed
        statuses = {c.scenario: c.status for c in comparison.comparisons}
        assert statuses == {"a": "improved", "b": "new"}

    def test_declared_subset_only_owes_its_selection(self):
        baseline = baseline_from_results(_report(a=0.1, b=0.5))
        partial = dict(_report(a=0.1), only=["a"])
        comparison = compare_results(partial, baseline)
        assert comparison.passed
        assert [c.scenario for c in comparison.comparisons] == ["a"]
        # ...but a scenario the sweep selected and failed to produce
        # still counts as missing.
        empty = dict(_report(), only=["a"])
        assert not compare_results(empty, baseline).passed

    def test_quick_report_compares_against_full_baseline(self):
        quick_names = [s.name for s in iter_scenarios(quick=True)]
        full = _report(**{s.name: 0.1 for s in iter_scenarios()})
        baseline = baseline_from_results(full)
        quick = dict(_report(**{name: 0.1 for name in quick_names}), quick=True)
        assert compare_results(quick, baseline).passed

    def test_missing_scenario_fails_even_structure_only(self):
        baseline = baseline_from_results(_report(a=0.1, b=0.5))
        comparison = compare_results(
            _report(a=0.1), baseline, structure_only=True
        )
        assert not comparison.passed
        assert any("'b'" in err for err in comparison.structure_errors)

    def test_structure_only_makes_timing_advisory(self):
        baseline = baseline_from_results(_report(a=0.1))
        comparison = compare_results(
            _report(a=10.0), baseline, structure_only=True
        )
        assert comparison.regressions  # still reported...
        assert comparison.passed       # ...but advisory

    def test_schema_mismatch_fails(self):
        baseline = baseline_from_results(_report(a=0.1))
        bad = dict(_report(a=0.1), schema_version=SCHEMA_VERSION + 1)
        assert not compare_results(bad, baseline).passed

    def test_unverified_run_fails(self):
        baseline = baseline_from_results(_report(a=0.1))
        report = _report(a=0.1)
        report["results"][0]["verified"] = False
        comparison = compare_results(report, baseline, structure_only=True)
        assert not comparison.passed

    def test_defaults_are_the_documented_thresholds(self):
        assert REL_THRESHOLD == 0.5
        assert ABS_FLOOR_SECONDS == 0.025


class TestBenchCli:
    def test_list_run_compare_update_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "core-cl-numpy" in out and "--quick subset" in out

        results = tmp_path / "results.json"
        assert main([
            "bench", "run", "--only", "core-cl-python", "--repeats", "1",
            "-o", str(results),
        ]) == 0
        report = json.loads(results.read_text())
        assert report["scenario_count"] == 1
        assert report["results"][0]["verified"] is True

        baseline = tmp_path / "baseline.json"
        assert main([
            "bench", "update-baseline", str(results), "--baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "compare", str(results), "--baseline", str(baseline),
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_exit_code_on_regression(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            baseline_from_results(_report(a=0.1, b=0.5))
        ))
        results = tmp_path / "results.json"
        results.write_text(json.dumps(_report(a=0.1, b=2.0)))
        assert main([
            "bench", "compare", str(results), "--baseline", str(baseline),
        ]) == 1
        out = capsys.readouterr().out
        assert "regressed" in out and "FAIL" in out
        # Structure-only mode downgrades the same timing delta to advisory.
        assert main([
            "bench", "compare", str(results), "--baseline", str(baseline),
            "--structure-only",
        ]) == 0
