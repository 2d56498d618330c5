"""Ablation A3: one shared index against a fresh build per query.

Twelve queries (both problems, six paper metrics) are answered by one
``BestKIndex`` and by a fresh ``kcore_set_scores`` / ``kcore_scores`` call
each; the workload asserts equal answers.  Sharing must never lose, and on
the largest dataset it must win by at least 3x.
"""

from repro.bench import workloads
from conftest import run_once


def bench_ablation_index_reuse(benchmark, record_result):
    table = run_once(benchmark, workloads.ablation_index_reuse)
    record_result("ablation_index_reuse", table.render())
    ratios = {row[0]: float(row[3][:-1]) for row in table.rows}
    assert all(ratio >= 1.0 for ratio in ratios.values()), ratios
    assert ratios["FS"] >= 3.0, ratios
