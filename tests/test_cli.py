"""Tests for the command-line interface."""

import pytest

from repro.bench.report import EXPERIMENT_ORDER
from repro.cli import build_parser, main
from repro.graph import save_edge_list


@pytest.fixture()
def graph_file(figure2, tmp_path):
    path = tmp_path / "fig2.txt"
    save_edge_list(figure2, path)
    return str(path)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "bestk" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_choices_cover_registry(self):
        parser = build_parser()
        for name in (e.name for e in EXPERIMENT_ORDER):
            args = parser.parse_args(["experiment", name])
            assert args.name == name


class TestCommands:
    def test_decompose(self, graph_file, capsys):
        assert main(["decompose", graph_file]) == 0
        out = capsys.readouterr().out
        assert "kmax (degeneracy) = 3" in out
        assert "n = 12" in out

    def test_set(self, graph_file, capsys):
        assert main(["set", graph_file, "-m", "average_degree"]) == 0
        assert "best k = 2" in capsys.readouterr().out

    def test_core_all_metrics(self, graph_file, capsys):
        assert main(["core", graph_file, "--all-metrics"]) == 0
        out = capsys.readouterr().out
        assert out.count("best k") == 6

    def test_truss(self, graph_file, capsys):
        assert main(["set", graph_file, "--family", "truss", "-m", "cc"]) == 0
        assert "best k = 4" in capsys.readouterr().out

    def test_densest(self, graph_file, capsys):
        assert main(["densest", graph_file]) == 0
        out = capsys.readouterr().out
        assert "Opt-D" in out and "CoreApp" in out

    def test_validate(self, graph_file, capsys):
        assert main(["validate", graph_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "FriendSter" in out and "DBLP" in out

    def test_backends_lists_all_three(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("python", "numpy", "native"):
            assert name in out
        # Per-kernel status for the native backend, whatever mode each
        # kernel resolved to on this machine.
        assert "peel_coreness" in out
        assert "delegated" in out

    def test_backends_marks_the_resolved_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "per-kernel numpy fallback (default)" in out
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "array passes (default)" in out
        assert "fallback (default)" not in out

    def test_decompose_backend_flag(self, graph_file, capsys):
        assert main(["decompose", graph_file, "--backend", "native"]) == 0
        assert "kmax (degeneracy) = 3" in capsys.readouterr().out

    def test_unknown_backend_flag_is_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", graph_file, "--backend", "cuda"])

    def test_dataset_spec_loading(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.2")
        assert main(["decompose", "dataset:G"]) == 0
        assert "kmax" in capsys.readouterr().out

    def test_unknown_metric_is_error(self, graph_file, capsys):
        assert main(["set", graph_file, "-m", "bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_error(self, capsys):
        assert main(["decompose", "/nonexistent/path.txt"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["set", "core"])
    def test_header_only_graph_is_typed_error(self, command, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# no edges\n")
        assert main([command, str(path), "-m", "average_degree"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err


class TestVisualisationCommands:
    def test_forest(self, graph_file, capsys):
        assert main(["forest", graph_file]) == 0
        out = capsys.readouterr().out
        assert "2-core" in out and "3-core" in out

    def test_forest_with_scores(self, graph_file, capsys):
        assert main(["forest", graph_file, "-m", "ad"]) == 0
        assert "score=" in capsys.readouterr().out

    def test_profile(self, graph_file, capsys):
        assert main(["profile", graph_file, "-m", "cc"]) == 0
        out = capsys.readouterr().out
        assert "shell sizes" in out
        assert "best k = 3" in out

    def test_experiment_registry_includes_extensions(self):
        names = [e.name for e in EXPERIMENT_ORDER]
        assert "extension_truss" in names
        assert "extension_weighted" in names
        assert len(names) == 18


class TestReportCommand:
    def test_experiment_uses_report_spelling(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.15")
        assert main(["experiment", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "case-study"])

    def test_report_subset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.15")
        out = tmp_path / "rep"
        assert main(["report", "--out", str(out), "--only", "table3"]) == 0
        assert (out / "REPORT.md").exists()
        assert "report written" in capsys.readouterr().out


@pytest.fixture()
def delta_file(tmp_path):
    path = tmp_path / "delta.txt"
    path.write_text("0 8\n1 6\n")
    return str(path)


class TestDynamicCommands:
    def test_apply_without_cache(self, graph_file, delta_file, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["apply", graph_file, "--edges", delta_file]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out and "+2 -0 edges" in out
        assert "path=batched" in out
        assert "epoch not persisted" in out

    def test_apply_chains_through_cache(self, graph_file, delta_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["apply", graph_file, "--edges", delta_file, "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "epoch 1" in first and "1 epoch record(s)" in first
        # The second apply resumes epoch 1 from the store and deletes the
        # same edges, chaining to epoch 2 on the batched repair path.
        assert main([
            "apply", graph_file, "--edges", delta_file, "--delete",
            "--cache-dir", cache,
        ]) == 0
        second = capsys.readouterr().out
        assert "resuming lineage" in second and "at epoch 1" in second
        assert "epoch 2" in second and "+0 -2 edges" in second
        assert "path=batched" in second

    def test_apply_rejects_removed_edge_plan(self, graph_file, delta_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["apply", graph_file, "--edges", delta_file, "--plan", "edge"])
        assert exc.value.code == 2
        assert "invalid choice: 'edge'" in capsys.readouterr().err

    def test_apply_strict_rejects_noop_edge(self, graph_file, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        dup = tmp_path / "dup.txt"
        dup.write_text("0 1\n")  # already present in figure2
        assert main(["apply", graph_file, "--edges", str(dup)]) == 1
        assert "error" in capsys.readouterr().err

    def test_apply_lenient_drops_noop_edge(self, graph_file, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        dup = tmp_path / "dup.txt"
        dup.write_text("0 1\n0 8\n")
        assert main(["apply", graph_file, "--edges", str(dup), "--lenient"]) == 0
        assert "+1 -0 edges" in capsys.readouterr().out

    def test_epochs_requires_cache(self, graph_file, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["epochs", graph_file]) == 1
        assert "no cache directory" in capsys.readouterr().err

    def test_epochs_lists_records(self, graph_file, delta_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["epochs", graph_file, "--cache-dir", cache]) == 0
        assert "no epoch records yet" in capsys.readouterr().out
        assert main(["apply", graph_file, "--edges", delta_file, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["epochs", graph_file, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out and "epoch 1" in out
        assert "latest epoch 1" in out


class TestSelectorStrictness:
    def test_backends_check_available(self, capsys):
        assert main(["backends", "--check", "numpy"]) == 0
        assert "numpy: available" in capsys.readouterr().out

    def test_backends_check_unknown(self, capsys):
        assert main(["backends", "--check", "bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_backends_check_native_disabled(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert main(["backends", "--check", "native"]) == 1
        err = capsys.readouterr().err
        assert "requested explicitly" in err and "fall back to numpy" in err

    def test_env_backend_bogus_fails_fast(self, graph_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(["set", graph_file, "-m", "average_degree"]) == 1
        assert "error" in capsys.readouterr().err

    def test_explicit_native_when_disabled_fails_fast(self, graph_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert main(["decompose", graph_file, "--backend", "native"]) == 1
        assert "fall back to numpy" in capsys.readouterr().err

    def test_default_resolution_still_degrades(self, graph_file, capsys, monkeypatch):
        # No explicit request: the documented degrade path stays silent.
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert main(["decompose", graph_file]) == 0
        assert "kmax" in capsys.readouterr().out
