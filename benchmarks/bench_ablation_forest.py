"""Ablation A2: LCPS vs shell sweep core forest construction."""

from repro.bench import workloads
from conftest import run_once


def bench_ablation_forest(benchmark, record_result):
    table = run_once(benchmark, workloads.ablation_forest)
    record_result("ablation_forest", table.render())
    assert len(table.rows) == 10
