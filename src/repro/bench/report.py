"""Combined experiment report.

:func:`run_all_experiments` executes every table/figure/ablation/extension
workload in DESIGN.md's experiment index and writes one self-contained
markdown report (plus per-experiment artefacts), so a single command
regenerates the whole evaluation:

    python -m repro report --out report/ [--only table4,fig5]

:data:`EXPERIMENT_ORDER` is the one experiment registry: the CLI's
per-experiment command (``bestk experiment NAME``) runs the same entries,
under the same names, one at a time.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass
from typing import Callable

from . import workloads
from .figures import render_series, save_series_csv
from .harness import format_seconds
from .svg import save_series_svg

__all__ = ["EXPERIMENT_ORDER", "run_all_experiments"]


@dataclass(frozen=True)
class _Entry:
    name: str
    title: str
    run: Callable[[], str]
    #: Optional extra artefact writer (csv/svg), given the output directory.
    artefacts: Callable[[pathlib.Path], None] | None = None


def _fig_artefacts(fig_fn: Callable, stem: str, title: str) -> Callable[[pathlib.Path], None]:
    def write(out_dir: pathlib.Path) -> None:
        series = fig_fn()
        save_series_csv(series, out_dir / f"{stem}.csv")
        save_series_svg(series, out_dir / f"{stem}.svg", title=title)
    return write


EXPERIMENT_ORDER: tuple[_Entry, ...] = (
    _Entry("table3", "Table III — dataset statistics",
           lambda: workloads.table3_dataset_stats().render()),
    _Entry("table4", "Table IV — best k for the k-core (set)",
           lambda: workloads.table4_best_k().render()),
    _Entry("fig5", "Figure 5 — score of every k-core set",
           lambda: render_series(workloads.fig5_set_scores()),
           _fig_artefacts(workloads.fig5_set_scores, "fig5", "Figure 5")),
    _Entry("fig6", "Figure 6 — score of every single k-core",
           lambda: render_series(workloads.fig6_core_scores()),
           _fig_artefacts(workloads.fig6_core_scores, "fig6", "Figure 6")),
    _Entry("case_study", "Tables V–VII — DBLP case study",
           lambda: "\n\n".join(t.render() for t in workloads.tables5to7_case_study())),
    _Entry("fig7", "Figure 7 — runtime, best k-core set",
           lambda: workloads.fig7_runtime_set().render()),
    _Entry("fig8", "Figure 8 — runtime, best single k-core",
           lambda: workloads.fig8_runtime_core().render()),
    _Entry("table8", "Table VIII — densest subgraph & maximum clique",
           lambda: workloads.table8_densest_clique().render()),
    _Entry("table9", "Table IX — size-constrained k-core",
           lambda: workloads.table9_sized_core().render()),
    _Entry("ablation_ordering", "Ablation A1 — position tags",
           lambda: workloads.ablation_ordering().render()),
    _Entry("ablation_forest", "Ablation A2 — LCPS vs shell sweep",
           lambda: workloads.ablation_forest().render()),
    _Entry("ablation_index_reuse", "Ablation A3 — index reuse",
           lambda: workloads.ablation_index_reuse().render()),
    _Entry("ablation_dynamic", "Ablation A4 — dynamic maintenance",
           lambda: workloads.ablation_dynamic().render()),
    _Entry("extension_truss", "Extension E1 — best k-truss set",
           lambda: workloads.extension_truss().render()),
    _Entry("extension_weighted", "Extension E2 — weighted s-cores",
           lambda: workloads.extension_weighted().render()),
    _Entry("extension_communities", "Extension E3 — community comparison",
           lambda: workloads.extension_communities().render()),
    _Entry("extension_spreaders", "Extension E4 — influential spreaders",
           lambda: workloads.extension_spreaders().render()),
    _Entry("extension_ecc", "Extension E5 — best k-ECC set",
           lambda: workloads.extension_ecc().render()),
)


def run_all_experiments(
    out_dir: str | os.PathLike,
    *,
    only: tuple[str, ...] | None = None,
    echo: Callable[[str], None] = print,
) -> pathlib.Path:
    """Run every experiment and write ``REPORT.md`` under ``out_dir``.

    ``only`` restricts to a subset of experiment names.  Returns the report
    path.  Each experiment's rendered text is also written to its own
    ``.txt`` file (plus CSV/SVG for the figures).
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections: list[str] = [
        "# Experiment report",
        "",
        "Generated by `repro.bench.report.run_all_experiments`; see",
        "EXPERIMENTS.md for paper-vs-measured interpretation.",
        "",
    ]
    for entry in EXPERIMENT_ORDER:
        if only is not None and entry.name not in only:
            continue
        echo(f"running {entry.name} ...")
        start = time.perf_counter()
        text = entry.run()
        elapsed = time.perf_counter() - start
        (out / f"{entry.name}.txt").write_text(text + "\n", encoding="utf-8")
        if entry.artefacts is not None:
            entry.artefacts(out)
        sections += [
            f"## {entry.title}",
            "",
            f"_regenerated in {format_seconds(elapsed)}_",
            "",
            "```",
            text,
            "```",
            "",
        ]
    report = out / "REPORT.md"
    report.write_text("\n".join(sections), encoding="utf-8")
    return report
