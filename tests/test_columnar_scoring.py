"""The one columnar scorer, bit for bit against the scalar formulas.

Every metric is an array function over primary-value columns
(:meth:`repro.engine.Metric.score_columns`).  The oracle here is each
metric's scalar formula evaluated in Python, one set at a time: the form
the metrics had before they became columnar.  Scores must agree in every
bit, ``-0.0`` and integer operands of ``2**53`` or more included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, zoo_params
from repro.engine import (
    WEIGHTED_METRICS,
    GraphTotals,
    PrimaryColumns,
    PrimaryValues,
    available_metrics,
    family_node_scores,
    family_set_scores,
    get_family,
    best_level_set,
    get_metric,
    get_weighted_metric,
    register_metric,
)
from repro.errors import MetricRequirementError, UnknownMetricError


# ----------------------------------------------------------------------
# The scalar oracle
# ----------------------------------------------------------------------

def _average_degree(v, t):
    return 2.0 * v.num_edges / v.num_vertices


def _internal_density(v, t):
    if v.num_vertices < 2:
        return 0.0
    return 2.0 * v.num_edges / (v.num_vertices * (v.num_vertices - 1))


def _cut_ratio(v, t):
    possible = v.num_vertices * (t.num_vertices - v.num_vertices)
    if possible == 0:
        return 1.0
    return 1.0 - v.num_boundary / possible


def _conductance(v, t):
    volume = 2 * v.num_edges + v.num_boundary
    if volume == 0:
        return 1.0
    return 1.0 - v.num_boundary / volume


def _modularity(v, t):
    if t.num_edges == 0:
        return 0.0
    fraction = v.num_edges / t.num_edges
    expected = (2 * v.num_edges + v.num_boundary) / (2 * t.num_edges)
    return fraction - expected * expected


def _clustering_coefficient(v, t):
    if not v.num_triplets:
        return 0.0
    return 3.0 * (v.num_triangles or 0) / v.num_triplets


def _edges_inside(v, t):
    return float(v.num_edges)


def _expansion(v, t):
    return -(v.num_boundary / v.num_vertices)


def _separability(v, t):
    if v.num_boundary == 0:
        return math.inf if v.num_edges > 0 else 0.0
    return v.num_edges / v.num_boundary


def _normalized_cut(v, t):
    inside_volume = 2 * v.num_edges + v.num_boundary
    outside_volume = 2 * (t.num_edges - v.num_edges) - v.num_boundary
    score = 0.0
    if inside_volume > 0:
        score += v.num_boundary / inside_volume
    if outside_volume > 0:
        score += v.num_boundary / outside_volume
    return -score


# The weighted family's formulas over (n, W, Wb) and (n, total weight).
def _w_average_degree(v, t):
    return 2.0 * v.num_edges / v.num_vertices


def _w_density(v, t):
    if v.num_vertices < 2:
        return 0.0
    return 2.0 * v.num_edges / (v.num_vertices * (v.num_vertices - 1))


def _w_conductance(v, t):
    volume = 2.0 * v.num_edges + v.num_boundary
    if volume == 0:
        return 1.0
    return 1.0 - v.num_boundary / volume


def _w_cut_ratio(v, t):
    possible = v.num_vertices * (t.num_vertices - v.num_vertices)
    if possible == 0:
        return 1.0
    return 1.0 - v.num_boundary / possible


def _w_modularity(v, t):
    if t.num_edges == 0:
        return 0.0
    fraction = v.num_edges / t.num_edges
    expected = (2.0 * v.num_edges + v.num_boundary) / (2.0 * t.num_edges)
    return fraction - expected * expected


SCALAR = {
    "average_degree": _average_degree,
    "internal_density": _internal_density,
    "cut_ratio": _cut_ratio,
    "conductance": _conductance,
    "modularity": _modularity,
    "clustering_coefficient": _clustering_coefficient,
    "edges_inside": _edges_inside,
    "expansion": _expansion,
    "separability": _separability,
    "normalized_cut": _normalized_cut,
    "weighted_average_degree": _w_average_degree,
    "weighted_density": _w_density,
    "weighted_conductance": _w_conductance,
    "weighted_cut_ratio": _w_cut_ratio,
    "weighted_modularity": _w_modularity,
}
UNWEIGHTED = tuple(m for m in SCALAR if m not in WEIGHTED_METRICS)


def oracle(name: str, values, totals) -> np.ndarray:
    return np.array([
        math.nan if pv.num_vertices == 0 else float(SCALAR[name](pv, totals))
        for pv in values
    ], dtype=np.float64)


def assert_same_bits(got, want) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


def columns_of(rows, with_triangles=True) -> PrimaryColumns:
    return PrimaryColumns.of(
        PrimaryValues(*row) if with_triangles else PrimaryValues(*row[:3]) for row in rows
    )


def test_every_registered_metric_has_an_oracle():
    assert set(available_metrics()) == set(UNWEIGHTED)
    assert set(WEIGHTED_METRICS) == set(SCALAR) - set(UNWEIGHTED)


class TestVocabularies:
    """Each family resolves only its own metric names."""

    @pytest.mark.parametrize("family", ("core", "truss", "ecc"))
    def test_unweighted_families_reject_weighted_names(self, family):
        graph = random_graph(20, 50, 1)
        for name in WEIGHTED_METRICS:
            with pytest.raises(UnknownMetricError):
                best_level_set(graph, family, name)
            with pytest.raises(UnknownMetricError):
                best_level_set(graph, family, get_weighted_metric(name))

    def test_weighted_family_rejects_unweighted_names(self):
        family = get_family("weighted")
        for name in UNWEIGHTED + ("ad", "con"):
            with pytest.raises(UnknownMetricError):
                family.resolve_metric(name)
            with pytest.raises(UnknownMetricError):
                get_weighted_metric(name)
        with pytest.raises(UnknownMetricError):
            family.resolve_metric(get_metric("conductance"))

    def test_weighted_names_stay_reserved(self):
        assert not set(WEIGHTED_METRICS) & set(available_metrics())
        with pytest.raises(ValueError):
            register_metric("weighted_density", lambda v, t: 0.0)


# ----------------------------------------------------------------------
# The zoo: level sets and forest nodes of every family
# ----------------------------------------------------------------------

class TestZoo:
    @zoo_params()
    @pytest.mark.parametrize("family", ("core", "truss", "ecc"))
    def test_unweighted_families(self, graph, family):
        for metric in UNWEIGHTED:
            for scored in (
                family_set_scores(graph, family, metric),
                family_node_scores(graph, family, metric),
            ):
                assert_same_bits(scored.scores, oracle(metric, scored.values, scored.totals))

    @zoo_params()
    def test_weighted_family(self, graph):
        weights = np.random.default_rng(4).uniform(0.1, 3.0, graph.num_edges)
        params = {"edge_weights": weights, "num_levels": 12}
        for metric in WEIGHTED_METRICS:
            for scored in (
                family_set_scores(graph, "weighted", metric, **params),
                family_node_scores(graph, "weighted", metric, **params),
            ):
                assert_same_bits(scored.scores, oracle(metric, scored.values, scored.totals))

    def test_values_are_built_from_the_columns_once(self):
        graph = random_graph(40, 120, 3)
        scored = family_set_scores(graph, "core", "average_degree")
        assert scored.values is scored.values
        assert [pv.num_edges for pv in scored.values] == scored.columns.num_edges.tolist()


# ----------------------------------------------------------------------
# Random columns
# ----------------------------------------------------------------------

# Operands reach past 2**53 (the exact-division path) while every product
# the formulas form stays inside int64.
_SMALL = st.integers(0, 12)
_HUGE = st.integers(2**53 - 4, 2**60)


@st.composite
def integer_case(draw):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.one_of(_SMALL, st.integers(0, 2**30)))
        m = draw(st.one_of(_SMALL, _HUGE))
        b = draw(st.one_of(_SMALL, _HUGE))
        trip = draw(st.one_of(_SMALL, _HUGE))
        tri = draw(st.integers(0, trip))
        rows.append((n, m, b, tri, trip))
    host_n = max(r[0] for r in rows) + draw(st.one_of(st.just(0), _SMALL, st.integers(0, 2**30)))
    host_m = max(r[1] for r in rows) + draw(st.one_of(st.just(0), _SMALL))
    if draw(st.booleans()):
        host_m = 0
    return rows, GraphTotals(host_n, host_m)


@st.composite
def weighted_case(draw):
    weight = st.one_of(
        st.just(0.0), st.just(-0.0),
        st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    )
    rows = [
        (draw(st.one_of(_SMALL, st.integers(0, 2**31))), draw(weight), draw(weight))
        for _ in range(draw(st.integers(1, 6)))
    ]
    host_n = max(r[0] for r in rows) + draw(st.one_of(st.just(0), _SMALL))
    return rows, GraphTotals(host_n, draw(weight))


@settings(max_examples=300, deadline=None)
@given(integer_case())
def test_random_integer_columns(case):
    rows, totals = case
    columns = columns_of(rows)
    values = [PrimaryValues(*row) for row in rows]
    for name in UNWEIGHTED:
        got = get_metric(name).score_columns(columns, totals)
        assert_same_bits(got, oracle(name, values, totals))


@settings(max_examples=300, deadline=None)
@given(weighted_case())
def test_random_weighted_columns(case):
    rows, totals = case
    n, w, wb = (np.array(col) for col in zip(*rows))
    columns = get_family("weighted").columns(n, 2.0 * w, wb)
    # The family's clamp keeps -0.0 as ``max(b, 0.0)`` does.
    values = [PrimaryValues(int(a), float(b), max(float(c), 0.0)) for a, b, c in rows]
    for name in WEIGHTED_METRICS:
        got = get_weighted_metric(name).score_columns(columns, totals)
        assert_same_bits(got, oracle(name, values, totals))


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

TOTALS = GraphTotals(100, 400)

EDGE_ROWS = {
    "empty": (0, 0, 0, 0, 0),
    "single_vertex": (1, 0, 3, 0, 0),
    "pair": (2, 1, 0, 0, 0),
    "whole_graph": (100, 400, 0, 30, 90),
    "zero_volume": (5, 0, 0, 0, 0),
    "zero_triplets": (3, 2, 1, 0, 0),
}


@pytest.mark.parametrize("case", sorted(EDGE_ROWS))
@pytest.mark.parametrize("host", ("host", "edgeless_host"))
def test_edge_cases(case, host):
    totals = TOTALS if host == "host" else GraphTotals(100, 0)
    row = EDGE_ROWS[case]
    for name in UNWEIGHTED:
        got = get_metric(name).score_columns(columns_of([row]), totals)
        want = oracle(name, [PrimaryValues(*row)], totals)
        assert_same_bits(got, want)
        assert_same_bits([get_metric(name).score(PrimaryValues(*row), totals)], want)


def test_negative_zero_boundary_is_kept_as_the_clamp_keeps_it():
    columns = get_family("weighted").columns(
        np.array([3, 3, 3]), np.array([4.0, 4.0, 4.0]), np.array([-0.0, 0.0, -1e-17])
    )
    clamped = [max(b, 0.0) for b in (-0.0, 0.0, -1e-17)]
    assert_same_bits(columns.num_boundary, clamped)
    assert math.copysign(1.0, columns.num_boundary[0]) == -1.0
    values = [PrimaryValues(3, 2.0, b) for b in clamped]
    totals = GraphTotals(10, 7.5)
    for name in WEIGHTED_METRICS:
        assert_same_bits(
            get_weighted_metric(name).score_columns(columns, totals),
            oracle(name, values, totals),
        )


def test_integer_operands_past_2_53_divide_exactly():
    n, host_n, b = 2**26 + 1, 2**28 + 7, 5**23
    possible = n * (host_n - n)
    assert possible >= 2**53 and b >= 2**53
    # float64 division would round twice here.
    assert b / possible != float(b) / float(possible)
    totals = GraphTotals(host_n, 2**61)
    row = (n, 2**59 + 1, b, 0, 0)
    for name in UNWEIGHTED:
        got = get_metric(name).score_columns(columns_of([row]), totals)
        assert_same_bits(got, oracle(name, [PrimaryValues(*row)], totals))


def test_triangle_metric_needs_triangle_columns():
    columns = columns_of([(3, 2, 1)], with_triangles=False)
    with pytest.raises(MetricRequirementError):
        get_metric("clustering_coefficient").score_columns(columns, TOTALS)
    # Only empty rows: nothing to score, nothing missing.
    empty = columns_of([(0, 0, 0)], with_triangles=False)
    assert np.isnan(get_metric("clustering_coefficient").score_columns(empty, TOTALS)).all()


# ----------------------------------------------------------------------
# Scalar user metrics are lifted row by row
# ----------------------------------------------------------------------

@pytest.fixture()
def user_metrics():
    # The lambdas of examples/custom_metric.py.
    fns = {
        "test_bounded_cohesion": (
            lambda v, t: 2.0 * v.num_edges / v.num_vertices - v.num_boundary / v.num_vertices,
            False,
        ),
        "test_triangle_rate": (lambda v, t: (v.num_triangles or 0) / v.num_vertices, True),
    }
    metrics = {
        name: register_metric(name, fn, requires_triangles=tri)
        for name, (fn, tri) in fns.items()
    }
    try:
        yield {name: (metrics[name], fn) for name, (fn, _) in fns.items()}
    finally:
        from repro.engine import metrics as metrics_module

        for name in fns:
            metrics_module._REGISTRY.pop(name)


@zoo_params()
def test_scalar_user_metrics_score_as_before(graph, user_metrics):
    for metric, fn in user_metrics.values():
        for scored in (
            family_set_scores(graph, "core", metric),
            family_node_scores(graph, "core", metric),
        ):
            want = [math.nan if pv.num_vertices == 0 else float(fn(pv, scored.totals))
                    for pv in scored.values]
            assert_same_bits(scored.scores, want)


def test_scalar_user_metric_sees_the_records_it_is_given(user_metrics):
    metric, fn = user_metrics["test_triangle_rate"]
    pv = PrimaryValues(4, 6, 2, 4, 12)
    assert metric.score(pv, TOTALS) == fn(pv, TOTALS) == 1.0
    assert math.isnan(metric.score(PrimaryValues(0, 0, 0, 0, 0), TOTALS))
    with pytest.raises(MetricRequirementError):
        metric.score(PrimaryValues(4, 6, 2), TOTALS)


def test_paper_metrics_are_column_functions():
    # Built-ins are not lifted scalar functions: none builds the records.
    columns = PrimaryColumns(*(np.array([x]) for x in (10, 20, 5, 4, 12)))
    for name in available_metrics():
        get_metric(name).score_columns(columns, TOTALS)
    assert "records" not in columns.__dict__
