"""Smoke tests for the experiment workloads at a tiny scale.

The full-size runs live in ``benchmarks/``; these tests only verify that
every experiment executes end-to-end and keeps its structural promises on
down-scaled datasets.
"""

import pytest

from repro.bench import workloads

SCALE = 0.15
SMALL = ("AP", "G")


@pytest.fixture(autouse=True)
def _small_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", str(SCALE))


class TestTables:
    def test_table3(self):
        table = workloads.table3_dataset_stats(scale=SCALE)
        assert len(table.rows) == 10
        assert "Astro-Ph" in table.render()

    def test_table4(self):
        table = workloads.table4_best_k(scale=SCALE, datasets=SMALL)
        assert len(table.rows) == 12
        assert all(len(row) == 3 for row in table.rows)

    def test_case_study(self):
        t5, t6, t7 = workloads.tables5to7_case_study(scale=0.3)
        assert "community A" in t5.title
        scores = {row[0]: row[1:] for row in t7.rows}
        assert float(scores["A"][1]) == 1.0  # density of the K18
        assert float(scores["B"][3]) == 1.0  # cut ratio of the isolated group

    def test_table8(self):
        table = workloads.table8_densest_clique(scale=SCALE, datasets=SMALL)
        for row in table.rows:
            assert float(row[3]) >= float(row[1]) - 1e-9  # Opt-D >= CoreApp

    def test_table9(self):
        table = workloads.table9_sized_core(scale=0.4, ks=(3, 5), queries_per_cell=3)
        assert table.rows
        assert all(len(row) == 3 for row in table.rows)


class TestFigures:
    def test_fig5_series_count(self):
        series = workloads.fig5_set_scores(scale=SCALE, datasets=("G",),
                                           metrics=("average_degree", "conductance"))
        assert len(series) == 2

    def test_fig6_series(self):
        series = workloads.fig6_core_scores(scale=SCALE, datasets=("G",),
                                            metrics=("average_degree",))
        assert len(series) == 1
        assert len(series[0].xs) >= 1

    def test_fig7_verifies_baseline_agreement(self):
        table = workloads.fig7_runtime_set(
            scale=SCALE, datasets=("AP",), metrics=("average_degree",), verify=True
        )
        assert len(table.rows) == 1
        assert table.rows[0][2] != "DNF"

    def test_fig8_runs(self):
        table = workloads.fig8_runtime_core(
            scale=SCALE, datasets=("AP",), metrics=("conductance",), verify=True
        )
        assert len(table.rows) == 1

    def test_dnf_mechanism(self):
        from repro.bench import TimeBudget
        table = workloads.fig7_runtime_set(
            scale=SCALE, datasets=("AP",), metrics=("clustering_coefficient",),
            budget=TimeBudget(1), verify=False,
        )
        assert table.rows[0][2] == "DNF"


class TestAblationsAndExtension:
    def test_ablation_ordering(self):
        table = workloads.ablation_ordering(scale=SCALE, datasets=("G",))
        assert len(table.rows) == 1

    def test_ablation_forest(self):
        table = workloads.ablation_forest(scale=SCALE, datasets=SMALL)
        assert len(table.rows) == 2

    def test_ablation_index_reuse(self):
        table = workloads.ablation_index_reuse(scale=SCALE, datasets=("G",))
        assert len(table.rows) == 1 and table.rows[0][3].endswith("x")
        # Sharing can only help; allow timer noise at this tiny scale.
        assert float(table.rows[0][3][:-1]) >= 0.7

    def test_extension_truss(self):
        table = workloads.extension_truss(scale=SCALE, datasets=("AP",), verify=True)
        assert len(table.rows) == 1
        assert int(table.rows[0][1]) >= 2  # tmax


class TestNewExtensions:
    def test_extension_weighted(self):
        table = workloads.extension_weighted(scale=SCALE, datasets=("G",), num_levels=12)
        assert len(table.rows) == 1

    def test_extension_communities(self):
        table = workloads.extension_communities(scale=SCALE, datasets=("G",))
        assert len(table.rows) == 3
        methods = [row[1] for row in table.rows]
        assert any(m.startswith("best C_k") for m in methods)
        assert "Louvain" in methods

    def test_extension_spreaders(self):
        table = workloads.extension_spreaders(
            scale=SCALE, datasets=("G",), sample_size=20, trials=3
        )
        assert len(table.rows) == 1
        assert all(cell.endswith("%") for cell in table.rows[0][1:])
