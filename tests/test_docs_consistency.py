"""Meta-tests keeping the documentation honest.

DESIGN.md promises an experiment index and a module inventory; these tests
verify that every promised artefact actually exists in the tree, so docs
and code cannot drift apart silently.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(path: str) -> str:
    return (ROOT / path).read_text(encoding="utf-8")


class TestDesignDocument:
    def test_every_bench_target_exists(self):
        design = read("DESIGN.md")
        targets = re.findall(r"`benchmarks/(bench_[a-z0-9_]+\.py)`", design)
        assert targets, "experiment index lists no bench targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_module_reference_imports(self):
        design = read("DESIGN.md")
        modules = set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", design))
        assert modules
        import importlib
        for dotted in modules:
            name = dotted.rstrip(".*").rstrip(".")
            if name.endswith(".*"):
                name = name[:-2]
            importlib.import_module(name.replace(".*", ""))

    def test_paper_check_is_recorded(self):
        assert "Paper-text check" in read("DESIGN.md")


class TestExperimentsDocument:
    def test_every_results_pointer_exists_after_bench_run(self):
        experiments = read("EXPERIMENTS.md")
        pointers = re.findall(r"`benchmarks/results/([a-z0-9_]+\.(?:txt|csv))`", experiments)
        assert pointers
        results = ROOT / "benchmarks" / "results"
        if not results.exists():
            pytest.skip("benchmark suite has not been run yet")
        for pointer in pointers:
            assert (results / pointer).exists(), pointer

    def test_covers_every_paper_table_and_figure(self):
        experiments = read("EXPERIMENTS.md")
        for heading in ("Table III", "Table IV", "Figure 5", "Figure 6",
                        "Tables V–VII", "Figure 7", "Figure 8",
                        "Table VIII", "Table IX"):
            assert heading in experiments, heading


class TestReadme:
    def test_example_table_matches_directory(self):
        readme = read("README.md")
        listed = set(re.findall(r"`([a-z_]+\.py)`", readme))
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert on_disk <= listed | {"setup.py"}, on_disk - listed

    def test_cli_commands_exist(self):
        from repro.cli import build_parser
        readme = read("README.md")
        commands = set(re.findall(r"bestk ([a-z-]+)", readme))
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        known = set(sub.choices)
        assert commands <= known, commands - known

    def test_docs_directory_complete(self):
        for name in ("algorithms.md", "metrics.md", "datasets.md",
                     "architecture.md", "api.md"):
            assert (ROOT / "docs" / name).exists(), name


#: Documents whose script and record paths must name files in the tree.
PATH_DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml")
PATH_PATTERN = re.compile(
    r"(?<![\w/.-])((?:benchmarks|scripts)/(?:[\w-]+/)*[\w-]+\.py|BENCH_\w+\.json)"
)


class TestNoStalePaths:
    @pytest.mark.parametrize(
        "document",
        PATH_DOCUMENTS + tuple(
            f"docs/{p.name}" for p in sorted((ROOT / "docs").glob("*.md"))
        ),
    )
    def test_every_named_script_and_record_exists(self, document):
        text = read(document)
        # A path a command writes with -o/--output need not exist yet.
        written = set(re.findall(r"(?:-o|--output)\s+(\S+)", text))
        named = set(PATH_PATTERN.findall(text)) - written
        missing = sorted(path for path in named if not (ROOT / path).exists())
        assert not missing, f"{document} names missing files: {missing}"
