"""Unit tests for the community metric framework."""

import math

import pytest

from repro.core import PAPER_METRICS, available_metrics, get_metric, register_metric
from repro.engine import GraphTotals, Metric, PrimaryValues
from repro.errors import MetricRequirementError, UnknownMetricError

TOTALS = GraphTotals(num_vertices=100, num_edges=400)


def values(n=10, m=20, b=5, tri=None, trip=None):
    return PrimaryValues(n, m, b, tri, trip)


class TestRegistry:
    def test_paper_metrics_registered(self):
        for name in PAPER_METRICS:
            assert get_metric(name).name == name

    def test_abbreviations_resolve(self):
        assert get_metric("ad").name == "average_degree"
        assert get_metric("den").name == "internal_density"
        assert get_metric("cr").name == "cut_ratio"
        assert get_metric("con").name == "conductance"
        assert get_metric("mod").name == "modularity"
        assert get_metric("cc").name == "clustering_coefficient"

    def test_metric_instance_passthrough(self):
        m = get_metric("ad")
        assert get_metric(m) is m

    def test_unknown_metric_raises_with_hint(self):
        with pytest.raises(UnknownMetricError, match="average_degree"):
            get_metric("nonsense")

    def test_available_metrics_sorted_unique(self):
        names = available_metrics()
        assert list(names) == sorted(set(names))
        assert "average_degree" in names

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_metric("average_degree", lambda v, t: 0.0)

    def test_register_duplicate_abbreviation_rejected(self):
        with pytest.raises(ValueError):
            register_metric("fresh_metric_name", lambda v, t: 0.0, abbreviation="ad")

    def test_register_custom_metric(self):
        metric = register_metric(
            "test_only_metric", lambda v, t: float(v.num_edges), abbreviation="tom"
        )
        try:
            assert get_metric("tom") is metric
            assert metric.score(values(), TOTALS) == 20.0
        finally:
            from repro.engine import metrics as metrics_module
            metrics_module._REGISTRY.pop("test_only_metric")
            metrics_module._REGISTRY.pop("tom")


class TestPaperFormulas:
    def test_average_degree(self):
        assert get_metric("ad").score(values(n=10, m=20), TOTALS) == 4.0

    def test_internal_density(self):
        assert get_metric("den").score(values(n=5, m=10), TOTALS) == 1.0
        assert get_metric("den").score(values(n=5, m=5), TOTALS) == 0.5

    def test_cut_ratio(self):
        score = get_metric("cr").score(values(n=10, b=45), TOTALS)
        assert score == 1.0 - 45 / (10 * 90)

    def test_conductance(self):
        score = get_metric("con").score(values(n=10, m=20, b=10), TOTALS)
        assert score == 1.0 - 10 / (2 * 20 + 10)

    def test_modularity(self):
        score = get_metric("mod").score(values(n=10, m=20, b=10), TOTALS)
        expected = 20 / 400 - ((2 * 20 + 10) / (2 * 400)) ** 2
        assert score == pytest.approx(expected)

    def test_clustering_coefficient(self):
        score = get_metric("cc").score(values(tri=4, trip=12), TOTALS)
        assert score == 1.0


class TestEdgeCases:
    @pytest.mark.parametrize("name", PAPER_METRICS)
    def test_empty_subgraph_is_nan(self, name):
        metric = get_metric(name)
        pv = PrimaryValues(0, 0, 0, 0 if metric.requires_triangles else None,
                           0 if metric.requires_triangles else None)
        assert math.isnan(metric.score(pv, TOTALS))

    def test_cut_ratio_of_whole_graph_is_one(self):
        pv = values(n=TOTALS.num_vertices, b=0)
        assert get_metric("cr").score(pv, TOTALS) == 1.0

    def test_conductance_of_edgeless_subgraph(self):
        assert get_metric("con").score(values(n=3, m=0, b=0), TOTALS) == 1.0

    def test_clustering_zero_triplets(self):
        assert get_metric("cc").score(values(tri=0, trip=0), TOTALS) == 0.0

    def test_density_single_vertex(self):
        assert get_metric("den").score(values(n=1, m=0, b=2), TOTALS) == 0.0

    def test_cc_without_counts_raises(self):
        with pytest.raises(MetricRequirementError):
            get_metric("cc").score(values(tri=None, trip=None), TOTALS)

    def test_modularity_empty_host(self):
        assert get_metric("mod").score(values(), GraphTotals(5, 0)) == 0.0


class TestExtraMetrics:
    def test_edges_inside(self):
        assert get_metric("edges_inside").score(values(m=7), TOTALS) == 7.0

    def test_expansion_negated(self):
        assert get_metric("expansion").score(values(n=10, b=5), TOTALS) == -0.5

    def test_separability(self):
        assert get_metric("separability").score(values(m=20, b=5), TOTALS) == 4.0
        assert get_metric("separability").score(values(m=20, b=0), TOTALS) == math.inf
        assert get_metric("separability").score(values(m=0, b=0), TOTALS) == 0.0

    def test_normalized_cut_negated(self):
        score = get_metric("normalized_cut").score(values(n=10, m=20, b=10), TOTALS)
        inside = 10 / (2 * 20 + 10)
        outside = 10 / (2 * (400 - 20) - 10)
        assert score == pytest.approx(-(inside + outside))


class TestMetricObject:
    def test_repr(self):
        assert "average_degree" in repr(get_metric("ad"))

    def test_metadata(self):
        cc = get_metric("cc")
        assert cc.requires_triangles
        assert cc.higher_is_better
        assert not get_metric("ad").requires_triangles

    def test_negative_primary_values_rejected(self):
        with pytest.raises(ValueError):
            PrimaryValues(-1, 0, 0)
