"""Combining community metrics — the paper's own suggestion, realised.

Section V-A observes that cut ratio and conductance "may not be used solely
for finding the best k-core set" and that "we may consider to use a
combination of different metrics to find the high-quality k-cores"
(repeated for single cores in V-A and in Table IV's discussion).  This
module implements that combination:

* every constituent metric's per-k (or per-core) profile is computed by the
  usual optimal algorithms,
* each profile is min–max normalised to [0, 1] (metrics live on wildly
  different scales — modularity in hundredths, average degree in dozens),
* the combined score is the weighted sum of the normalised profiles.

Because the combination operates on whole profiles, it costs one optimal
pass per constituent metric — the "index built once, scored many times"
regime the paper advertises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import Metric, get_metric
from ..graph.csr import Graph
from .bestk_core import KCoreScores, kcore_scores
from .bestk_set import kcore_set_scores
from .forest import CoreForest
from .ordering import OrderedGraph, order_vertices

__all__ = ["CombinedBestK", "combined_kcore_set_scores", "combined_kcore_scores"]


def _normalise(profile: np.ndarray) -> np.ndarray:
    """Min–max normalise, mapping nan to nan; constant profiles become 0.5."""
    finite = profile[~np.isnan(profile)]
    if len(finite) == 0:
        return profile.copy()
    lo, hi = float(finite.min()), float(finite.max())
    if hi == lo:
        out = np.full_like(profile, 0.5)
        out[np.isnan(profile)] = np.nan
        return out
    return (profile - lo) / (hi - lo)


def _validate_weights(metrics: list[tuple[str | Metric, float]]) -> list[tuple[Metric, float]]:
    if not metrics:
        raise ValueError("need at least one (metric, weight) pair")
    resolved = [(get_metric(m), float(w)) for m, w in metrics]
    if any(w < 0 for _, w in resolved):
        raise ValueError("weights must be non-negative")
    if sum(w for _, w in resolved) == 0:
        raise ValueError("at least one weight must be positive")
    return resolved


@dataclass(frozen=True)
class CombinedBestK:
    """Result of a combined-metric best-k search."""

    #: The winning k (or forest node id for the single-core variant).
    k: int
    #: Combined (normalised, weighted) score of the winner.
    score: float
    #: Combined profile per k / per node.
    combined: np.ndarray
    #: Constituent profiles keyed by metric name (raw, unnormalised).
    profiles: dict[str, np.ndarray]
    #: Node id of the winner (single-core variant only; -1 otherwise).
    node_id: int = -1


def combined_kcore_set_scores(
    graph: Graph,
    metrics: list[tuple[str | Metric, float]],
    *,
    ordered: OrderedGraph | None = None,
) -> CombinedBestK:
    """Best k for the k-core set under a weighted metric combination.

    ``metrics`` is a list of ``(metric, weight)`` pairs, e.g. the paper's
    motivating mix of a cohesiveness and an isolation signal::

        combined_kcore_set_scores(g, [("average_degree", 1.0), ("conductance", 1.0)])
    """
    resolved = _validate_weights(metrics)
    if ordered is None:
        ordered = order_vertices(graph)
    profiles: dict[str, np.ndarray] = {}
    combined: np.ndarray | None = None
    total_weight = sum(w for _, w in resolved)
    for metric, weight in resolved:
        scores = kcore_set_scores(graph, metric, ordered=ordered).scores
        profiles[metric.name] = scores
        term = _normalise(scores) * (weight / total_weight)
        combined = term if combined is None else combined + term
    assert combined is not None
    finite = ~np.isnan(combined)
    if not finite.any():
        raise ValueError("no non-empty k-core set to choose from")
    best = np.nanmax(combined)
    k = int(np.flatnonzero(finite & (combined == best)).max())
    return CombinedBestK(k=k, score=float(best), combined=combined, profiles=profiles)


def combined_kcore_scores(
    graph: Graph,
    metrics: list[tuple[str | Metric, float]],
    *,
    ordered: OrderedGraph | None = None,
    forest: CoreForest | None = None,
) -> CombinedBestK:
    """Best *single* k-core under a weighted metric combination."""
    resolved = _validate_weights(metrics)
    if ordered is None:
        ordered = order_vertices(graph)
    profiles: dict[str, np.ndarray] = {}
    combined: np.ndarray | None = None
    total_weight = sum(w for _, w in resolved)
    scored_ref: KCoreScores | None = None
    for metric, weight in resolved:
        scored = kcore_scores(graph, metric, ordered=ordered, forest=forest)
        scored_ref = scored
        forest = scored.forest
        profiles[metric.name] = scored.scores
        term = _normalise(scored.scores) * (weight / total_weight)
        combined = term if combined is None else combined + term
    assert combined is not None and scored_ref is not None
    node_id = scored_ref.forest.best_node(combined)
    return CombinedBestK(
        k=int(scored_ref.forest.k[node_id]),
        score=float(combined[node_id]),
        combined=combined,
        profiles=profiles,
        node_id=node_id,
    )
