"""Community scoring metrics — paper Section II-C.

Every metric is a function of the :class:`~repro.engine.primary.PrimaryValues`
of the subgraph under evaluation plus the :class:`GraphTotals` of the host
graph.  That factoring is the paper's central extensibility claim: any metric
expressible over the five primary values plugs into the optimal algorithms
unchanged, via :func:`register_metric`.

The six metrics evaluated in the paper (Table IV, Figures 5-8) are provided
under both their full names and the paper's abbreviations::

    average_degree (ad)    internal_density (den)   cut_ratio (cr)
    conductance (con)      modularity (mod)         clustering_coefficient (cc)

plus four further metrics from the community-analysis survey the paper cites
[11] that are also primary-value expressible: ``edges_inside``,
``expansion``, ``separability`` and ``normalized_cut``.

Edge-case conventions (all deterministic, see DESIGN.md §3): an empty
subgraph scores ``nan`` for every metric; degenerate denominators score the
documented neutral value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import MetricRequirementError, UnknownMetricError
from .primary import GraphTotals, PrimaryValues

__all__ = [
    "Metric",
    "register_metric",
    "get_metric",
    "available_metrics",
    "PAPER_METRICS",
]

#: Score function signature: (subgraph primary values, host totals) -> float.
ScoreFn = Callable[[PrimaryValues, GraphTotals], float]


@dataclass(frozen=True)
class Metric:
    """A community scoring metric.

    Attributes
    ----------
    name:
        Canonical registry name.
    abbreviation:
        The paper's short name (``ad``, ``den``, ...), also registered.
    requires_triangles:
        Whether ``PrimaryValues.num_triangles``/``num_triplets`` must be
        present; drives the choice between Algorithm 2 and Algorithm 3.
    higher_is_better:
        All paper metrics are maximised; kept explicit for extensions.
    """

    name: str
    fn: ScoreFn
    abbreviation: str | None = None
    requires_triangles: bool = False
    higher_is_better: bool = True
    description: str = ""

    def score(self, values: PrimaryValues, totals: GraphTotals) -> float:
        """Score one subgraph; ``nan`` for an empty subgraph."""
        if values.num_vertices == 0:
            return math.nan
        if self.requires_triangles and not values.has_triangles:
            raise MetricRequirementError(
                f"metric {self.name!r} needs triangle counts; "
                "run the scoring algorithm with count_triangles=True"
            )
        return self.fn(values, totals)

    def __repr__(self) -> str:
        return f"Metric({self.name!r})"


_REGISTRY: dict[str, Metric] = {}


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
    five primary values participates in the optimal algorithms.  Names must
    be unique; the abbreviation is registered as an alias.
    """
    if name in _REGISTRY:
        raise ValueError(f"metric {name!r} already registered")
    if abbreviation and abbreviation in _REGISTRY:
        raise ValueError(f"metric abbreviation {abbreviation!r} already registered")
    metric = Metric(
        name=name,
        fn=fn,
        abbreviation=abbreviation,
        requires_triangles=requires_triangles,
        higher_is_better=higher_is_better,
        description=description,
    )
    _REGISTRY[name] = metric
    if abbreviation:
        _REGISTRY[abbreviation] = metric
    return metric


def get_metric(metric: str | Metric) -> Metric:
    """Resolve a metric by name, abbreviation, or pass through an instance."""
    if isinstance(metric, Metric):
        return metric
    found = _REGISTRY.get(metric)
    if found is None:
        raise UnknownMetricError(metric, available_metrics())
    return found


def available_metrics() -> tuple[str, ...]:
    """Canonical names of all registered metrics, sorted."""
    return tuple(sorted({m.name for m in _REGISTRY.values()}))


# ----------------------------------------------------------------------
# The paper's six metrics
# ----------------------------------------------------------------------

def _average_degree(v: PrimaryValues, _: GraphTotals) -> float:
    return 2.0 * v.num_edges / v.num_vertices


def _internal_density(v: PrimaryValues, _: GraphTotals) -> float:
    if v.num_vertices < 2:
        return 0.0
    return 2.0 * v.num_edges / (v.num_vertices * (v.num_vertices - 1))


def _cut_ratio(v: PrimaryValues, t: GraphTotals) -> float:
    outside = t.num_vertices - v.num_vertices
    possible = v.num_vertices * outside
    if possible == 0:
        # The subgraph covers the whole graph: no boundary edge can exist.
        return 1.0
    return 1.0 - v.num_boundary / possible


def _conductance(v: PrimaryValues, _: GraphTotals) -> float:
    volume = 2 * v.num_edges + v.num_boundary
    if volume == 0:
        return 1.0
    return 1.0 - v.num_boundary / volume


def _modularity(v: PrimaryValues, t: GraphTotals) -> float:
    if t.num_edges == 0:
        return 0.0
    fraction = v.num_edges / t.num_edges
    expected = (2 * v.num_edges + v.num_boundary) / (2 * t.num_edges)
    return fraction - expected * expected


def _clustering_coefficient(v: PrimaryValues, _: GraphTotals) -> float:
    if not v.num_triplets:
        return 0.0
    return 3.0 * (v.num_triangles or 0) / v.num_triplets


register_metric(
    "average_degree", _average_degree, abbreviation="ad",
    description="2 m(S) / n(S): mean vertex degree inside S.",
)
register_metric(
    "internal_density", _internal_density, abbreviation="den",
    description="2 m(S) / (n(S) (n(S)-1)): fraction of possible internal edges.",
)
register_metric(
    "cut_ratio", _cut_ratio, abbreviation="cr",
    description="1 - b(S) / (n(S) (n - n(S))): complement of the realised boundary fraction.",
)
register_metric(
    "conductance", _conductance, abbreviation="con",
    description="1 - b(S) / (2 m(S) + b(S)): complement of the escaping volume fraction.",
)
register_metric(
    "modularity", _modularity, abbreviation="mod",
    description="m(S)/m - ((2 m(S)+b(S)) / 2m)^2: single-community modularity contribution.",
)
register_metric(
    "clustering_coefficient", _clustering_coefficient, abbreviation="cc",
    requires_triangles=True,
    description="3 Δ(S) / t(S): global clustering (transitivity) of S.",
)

# ----------------------------------------------------------------------
# Additional primary-value metrics from the survey [11]
# ----------------------------------------------------------------------

def _edges_inside(v: PrimaryValues, _: GraphTotals) -> float:
    return float(v.num_edges)


def _expansion(v: PrimaryValues, _: GraphTotals) -> float:
    # Lower is better in the survey; we negate so "higher is better" holds
    # uniformly for argmax-style best-k selection.
    return -(v.num_boundary / v.num_vertices)


def _separability(v: PrimaryValues, _: GraphTotals) -> float:
    if v.num_boundary == 0:
        return math.inf if v.num_edges > 0 else 0.0
    return v.num_edges / v.num_boundary


def _normalized_cut(v: PrimaryValues, t: GraphTotals) -> float:
    inside_volume = 2 * v.num_edges + v.num_boundary
    outside_volume = 2 * (t.num_edges - v.num_edges) - v.num_boundary
    score = 0.0
    if inside_volume > 0:
        score += v.num_boundary / inside_volume
    if outside_volume > 0:
        score += v.num_boundary / outside_volume
    return -score


register_metric(
    "edges_inside", _edges_inside,
    description="m(S): raw internal edge count.",
)
register_metric(
    "expansion", _expansion,
    description="-b(S)/n(S): negated external degree per vertex (higher is better).",
)
register_metric(
    "separability", _separability,
    description="m(S)/b(S): internal over boundary edges.",
)
register_metric(
    "normalized_cut", _normalized_cut,
    description="negated normalised cut of (S, V\\S) (higher is better).",
)

#: The six metrics evaluated in the paper, in its presentation order.
PAPER_METRICS: tuple[str, ...] = (
    "average_degree",
    "internal_density",
    "cut_ratio",
    "conductance",
    "modularity",
    "clustering_coefficient",
)
