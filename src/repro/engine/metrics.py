"""Community scoring metrics — paper Section II-C.

Every metric is a function of the primary values of the subgraph under
evaluation plus the :class:`GraphTotals` of the host graph.  That factoring
is the paper's central extensibility claim: any metric expressible over the
five primary values plugs into the optimal algorithms unchanged, via
:func:`register_metric`.

A metric is defined once, as an array function over named columns
(:class:`~repro.engine.primary.PrimaryColumns`: ``num_vertices``,
``num_edges``, ``num_boundary``, ``num_triangles``, ``num_triplets``) plus
the host totals.  :meth:`Metric.score_columns` is the one scorer: every
level set, every forest node and both baselines are scored by it in a few
array passes, and :meth:`Metric.score` evaluates the same function on a
one-row column.

The six metrics evaluated in the paper (Table IV, Figures 5-8) are provided
under both their full names and the paper's abbreviations::

    average_degree (ad)    internal_density (den)   cut_ratio (cr)
    conductance (con)      modularity (mod)         clustering_coefficient (cc)

plus four further metrics from the community-analysis survey the paper cites
[11] that are also primary-value expressible: ``edges_inside``,
``expansion``, ``separability`` and ``normalized_cut``.  The weighted
family's five metrics (:data:`WEIGHTED_METRICS`) are aliases: the same
functions under their own names, evaluated over float weight columns.  They
form their own vocabulary, resolved by :func:`get_weighted_metric`;
:func:`get_metric`, and so every unweighted family, rejects them.

Edge-case conventions (all deterministic, see DESIGN.md §3): an empty
subgraph scores ``nan`` for every metric; degenerate denominators score the
documented neutral value.  Every score is bit-identical to the scalar
formula evaluated in Python, including integer divisions with an operand of
``2**53`` or more (:func:`_div`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..errors import MetricRequirementError, UnknownMetricError
from .primary import GraphTotals, PrimaryColumns, PrimaryValues

__all__ = [
    "Metric",
    "register_metric",
    "get_metric",
    "get_weighted_metric",
    "available_metrics",
    "PAPER_METRICS",
    "WEIGHTED_METRICS",
]

#: Scalar score signature accepted by :func:`register_metric`:
#: (subgraph primary values, host totals) -> float.
ScoreFn = Callable[[PrimaryValues, GraphTotals], float]
#: Column score signature of a :class:`Metric`: (columns, host totals) -> one
#: score per row.  Rows of empty sets are overwritten with ``nan``.
ColumnFn = Callable[[PrimaryColumns, GraphTotals], np.ndarray]


@dataclass(frozen=True)
class Metric:
    """A community scoring metric.

    Attributes
    ----------
    name:
        Canonical registry name.
    fn:
        The column function (:data:`ColumnFn`).
    abbreviation:
        The paper's short name (``ad``, ``den``, ...), also registered.
    requires_triangles:
        Whether the ``num_triangles``/``num_triplets`` columns must be
        present; drives the choice between Algorithm 2 and Algorithm 3.
    higher_is_better:
        All paper metrics are maximised; kept explicit for extensions.
    """

    name: str
    fn: ColumnFn
    abbreviation: str | None = None
    requires_triangles: bool = False
    higher_is_better: bool = True
    description: str = ""

    def score_columns(self, columns: PrimaryColumns, totals: GraphTotals) -> np.ndarray:
        """Score every row of ``columns``; ``nan`` for the empty sets."""
        nonempty = columns.num_vertices != 0
        if not nonempty.any():
            return np.full(len(columns), math.nan)
        if self.requires_triangles and columns.num_triangles is None:
            raise MetricRequirementError(
                f"metric {self.name!r} needs triangle counts; "
                "run the scoring algorithm with count_triangles=True"
            )
        with np.errstate(all="ignore"):
            scores = np.array(self.fn(columns, totals), dtype=np.float64)
        if not nonempty.all():
            scores[~nonempty] = math.nan
        return scores

    def score(self, values: PrimaryValues, totals: GraphTotals) -> float:
        """Score one subgraph; ``nan`` for an empty subgraph."""
        return float(self.score_columns(PrimaryColumns.of((values,)), totals)[0])

    def __repr__(self) -> str:
        return f"Metric({self.name!r})"


_REGISTRY: dict[str, Metric] = {}
#: The weighted family's aliases, by name; kept apart from :data:`_REGISTRY`
#: so neither family vocabulary resolves the other's names.
_WEIGHTED: dict[str, Metric] = {}


def _register(metric: Metric) -> Metric:
    for key in filter(None, (metric.name, metric.abbreviation)):
        if key in _REGISTRY or key in _WEIGHTED:
            raise ValueError(f"metric name or abbreviation {key!r} already registered")
    _REGISTRY[metric.name] = metric
    if metric.abbreviation:
        _REGISTRY[metric.abbreviation] = metric
    return metric


def _lift(fn: ScoreFn) -> ColumnFn:
    """A scalar score function applied row by row, skipping empty sets."""
    def columnar(columns: PrimaryColumns, totals: GraphTotals) -> np.ndarray:
        records = columns.records
        out = np.full(len(records), math.nan)
        for i in np.flatnonzero(columns.num_vertices != 0).tolist():
            out[i] = fn(records[i], totals)
        return out

    return columnar


def register_metric(
    name: str,
    fn: ScoreFn,
    *,
    abbreviation: str | None = None,
    requires_triangles: bool = False,
    higher_is_better: bool = True,
    description: str = "",
) -> Metric:
    """Register a new community metric and return it.

    The extension point promised by the paper: any score computable from the
    five primary values participates in the optimal algorithms.  ``fn``
    scores one :class:`~repro.engine.primary.PrimaryValues`; it is lifted
    to columns by calling it once per non-empty row.  Names must be unique;
    the abbreviation is registered as an alias.
    """
    return _register(Metric(
        name=name,
        fn=_lift(fn),
        abbreviation=abbreviation,
        requires_triangles=requires_triangles,
        higher_is_better=higher_is_better,
        description=description,
    ))


def get_metric(metric: str | Metric) -> Metric:
    """Resolve a metric by name, abbreviation, or pass through an instance.

    The weighted aliases are not part of this vocabulary: they resolve only
    through :func:`get_weighted_metric`.
    """
    if isinstance(metric, Metric):
        if metric.name in _WEIGHTED:
            raise UnknownMetricError(metric.name, available_metrics())
        return metric
    found = _REGISTRY.get(metric)
    if found is None:
        raise UnknownMetricError(metric, available_metrics())
    return found


def get_weighted_metric(metric: str | Metric) -> Metric:
    """Resolve one of the weighted family's :data:`WEIGHTED_METRICS`."""
    found = _WEIGHTED.get(getattr(metric, "name", metric))
    if found is None:
        raise UnknownMetricError(getattr(metric, "name", metric), WEIGHTED_METRICS)
    return found


def available_metrics() -> tuple[str, ...]:
    """Canonical names of all registered (unweighted) metrics, sorted."""
    return tuple(sorted({m.name for m in _REGISTRY.values()}))


# ----------------------------------------------------------------------
# Exact division
# ----------------------------------------------------------------------

#: From this magnitude on an int64 no longer converts to float64 exactly.
_EXACT = 2**53


def _div(num, den) -> np.ndarray:
    """``num / den`` per element, rounded exactly as Python rounds it.

    Python divides two ints exactly (one rounding of the true quotient);
    numpy converts both to float64 first, which agrees only while every
    integer operand lies below ``2**53`` in magnitude.  Past that, the
    quotients are taken in Python.  A float operand converts the same way
    in both, so float columns never need it.  A zero denominator gives
    ``inf`` or ``nan``: every caller masks those rows.
    """
    num, den = np.asarray(num), np.asarray(den)
    out = np.true_divide(num, den)
    if _past_float(num) or _past_float(den):
        num, den = np.broadcast_arrays(num, den)
        exact = den != 0
        out[exact] = [a / b for a, b in zip(num[exact].tolist(), den[exact].tolist())]
    return out


def _past_float(values: np.ndarray) -> bool:
    """Whether an integer array holds a value float64 cannot represent exactly."""
    return values.dtype.kind in "iu" and values.size > 0 and (
        int(values.max()) >= _EXACT or int(values.min()) <= -_EXACT
    )


# ----------------------------------------------------------------------
# The paper's six metrics
# ----------------------------------------------------------------------

def _average_degree(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    return 2.0 * c.num_edges / c.num_vertices


def _internal_density(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    n = c.num_vertices
    return np.where(n < 2, 0.0, 2.0 * c.num_edges / (n * (n - 1)))


def _cut_ratio(c: PrimaryColumns, t: GraphTotals) -> np.ndarray:
    # possible == 0: the subgraph covers the whole graph, no boundary edge
    # can exist.
    possible = c.num_vertices * (t.num_vertices - c.num_vertices)
    return np.where(possible == 0, 1.0, 1.0 - _div(c.num_boundary, possible))


def _conductance(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    volume = 2 * c.num_edges + c.num_boundary
    return np.where(volume == 0, 1.0, 1.0 - _div(c.num_boundary, volume))


def _modularity(c: PrimaryColumns, t: GraphTotals) -> np.ndarray:
    if t.num_edges == 0:
        return np.zeros(len(c))
    fraction = _div(c.num_edges, t.num_edges)
    expected = _div(2 * c.num_edges + c.num_boundary, 2 * t.num_edges)
    return fraction - expected * expected


def _clustering_coefficient(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    return np.where(c.num_triplets == 0, 0.0, 3.0 * c.num_triangles / c.num_triplets)


# ----------------------------------------------------------------------
# Additional primary-value metrics from the survey [11]
# ----------------------------------------------------------------------

def _edges_inside(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    return c.num_edges.astype(np.float64)


def _expansion(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    # Lower is better in the survey; we negate so "higher is better" holds
    # uniformly for argmax-style best-k selection.
    return -_div(c.num_boundary, c.num_vertices)


def _separability(c: PrimaryColumns, _: GraphTotals) -> np.ndarray:
    b, m = c.num_boundary, c.num_edges
    return np.where(b == 0, np.where(m > 0, math.inf, 0.0), _div(m, b))


def _normalized_cut(c: PrimaryColumns, t: GraphTotals) -> np.ndarray:
    b = c.num_boundary
    inside_volume = 2 * c.num_edges + b
    outside_volume = 2 * (t.num_edges - c.num_edges) - b
    # Summed from 0.0 term by term, as the scalar formula does.
    score = 0.0 + np.where(inside_volume > 0, _div(b, inside_volume), 0.0)
    score = score + np.where(outside_volume > 0, _div(b, outside_volume), 0.0)
    return -score


for _metric in (
    Metric("average_degree", _average_degree, "ad",
           description="2 m(S) / n(S): mean vertex degree inside S."),
    Metric("internal_density", _internal_density, "den",
           description="2 m(S) / (n(S) (n(S)-1)): fraction of possible internal edges."),
    Metric("cut_ratio", _cut_ratio, "cr",
           description="1 - b(S) / (n(S) (n - n(S))): complement of the realised boundary fraction."),
    Metric("conductance", _conductance, "con",
           description="1 - b(S) / (2 m(S) + b(S)): complement of the escaping volume fraction."),
    Metric("modularity", _modularity, "mod",
           description="m(S)/m - ((2 m(S)+b(S)) / 2m)^2: single-community modularity contribution."),
    Metric("clustering_coefficient", _clustering_coefficient, "cc", requires_triangles=True,
           description="3 Δ(S) / t(S): global clustering (transitivity) of S."),
    Metric("edges_inside", _edges_inside, description="m(S): raw internal edge count."),
    Metric("expansion", _expansion,
           description="-b(S)/n(S): negated external degree per vertex (higher is better)."),
    Metric("separability", _separability, description="m(S)/b(S): internal over boundary edges."),
    Metric("normalized_cut", _normalized_cut,
           description="negated normalised cut of (S, V\\S) (higher is better)."),
):
    _register(_metric)

#: The six metrics evaluated in the paper, in its presentation order.
PAPER_METRICS: tuple[str, ...] = (
    "average_degree",
    "internal_density",
    "cut_ratio",
    "conductance",
    "modularity",
    "clustering_coefficient",
)

# ----------------------------------------------------------------------
# The weighted family's vocabulary
# ----------------------------------------------------------------------

#: Weighted name -> (metric it aliases, description over weight sums).  Over
#: the weighted family's float columns ``num_edges`` is the internal weight
#: W(S), ``num_boundary`` the boundary weight Wb(S) and the host's
#: ``num_edges`` its total weight.
_WEIGHTED_ALIASES = {
    "weighted_average_degree": ("average_degree", "2 W(S) / n(S): mean vertex strength inside S"),
    "weighted_conductance": ("conductance", "1 - Wb / (2 W + Wb): strength-weighted conductance"),
    "weighted_cut_ratio": ("cut_ratio", "1 - Wb / (n(S)(n - n(S))): boundary weight per possible pair"),
    "weighted_density": ("internal_density", "2 W(S) / (n(S)(n(S)-1)): weight per possible pair"),
    "weighted_modularity": ("modularity", "weighted single-community modularity contribution"),
}
for _alias, (_base, _description) in _WEIGHTED_ALIASES.items():
    _WEIGHTED[_alias] = replace(
        _REGISTRY[_base], name=_alias, abbreviation=None, description=_description
    )

#: The weighted family's metrics, sorted.
WEIGHTED_METRICS: tuple[str, ...] = tuple(sorted(_WEIGHTED_ALIASES))
