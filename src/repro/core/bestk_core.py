"""Finding the best single k-core — paper Section IV.

Candidates are **all** connected k-cores of **all** orders ``0..kmax`` —
exactly the nodes of the core forest.  Two paths:

* :func:`baseline_kcore_scores` — the paper's baseline (Section IV-B):
  reconstruct each core's vertex set from the forest and recompute its
  primary values from scratch.
* :func:`kcore_scores` — Algorithm 5: process forest nodes in descending
  coreness order; each node's primary values are the sum of its children's
  plus the incremental contribution of its own shell vertices (the same
  per-vertex deltas as Algorithms 2/3, grouped by node instead of by
  shell).

Both return :class:`KCoreScores`; :func:`best_single_kcore` picks the
winner, with ties broken towards the largest k, then the lowest node id —
the core with the smallest shell vertex, as the forest numbers nodes
canonically (:class:`~repro.core.forest.CoreForest`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..engine import (
    GraphTotals,
    Metric,
    PrimaryValues,
    get_metric,
    graph_totals,
    primary_values,
    triangles_by_min_rank_vertex,
    triplet_group_deltas,
)
from ..graph.csr import Graph
from .forest import CoreForest, build_core_forest
from .ordering import OrderedGraph, order_vertices

__all__ = [
    "KCoreScores",
    "BestCoreResult",
    "kcore_scores",
    "baseline_kcore_scores",
    "best_single_kcore",
    "forest_base_totals",
    "forest_triangle_totals",
    "forest_node_values",
    "scores_from_forest_totals",
]


@dataclass(frozen=True)
class KCoreScores:
    """Scores and primary values of every connected k-core (forest node)."""

    metric: Metric
    totals: GraphTotals
    forest: CoreForest
    #: ``scores[i]`` = metric score of forest node i's core.
    scores: np.ndarray
    #: ``values[i]`` = primary values of forest node i's core.
    values: tuple[PrimaryValues, ...]

    def best_node(self) -> int:
        """Node id of the best core; ties towards largest k, then lowest id.

        Node ids are canonical (descending k, then smallest shell vertex),
        so among equal-score cores of one k the one holding the smallest
        vertex wins, whichever builder or store state produced the forest.
        """
        return self.forest.best_node(self.scores)

    def ranked_nodes(self) -> np.ndarray:
        """Node ids sorted by descending score (nan last)."""
        keys = np.where(np.isnan(self.scores), -np.inf, self.scores)
        return np.argsort(-keys, kind="stable")

    def __repr__(self) -> str:
        return f"KCoreScores(metric={self.metric.name!r}, cores={len(self.scores)})"


@dataclass(frozen=True)
class BestCoreResult:
    """The best single k-core for one metric on one graph."""

    metric_name: str
    k: int
    score: float
    node_id: int
    scores: KCoreScores
    #: Full vertex set of the winning core (sorted ascending).
    vertices: np.ndarray

    def __repr__(self) -> str:
        return (
            f"BestCoreResult(metric={self.metric_name!r}, k={self.k}, "
            f"score={self.score:.6g}, |V|={len(self.vertices)})"
        )


def _node_shell_deltas(
    ordered: OrderedGraph, forest: CoreForest
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node (2*in, out, num) contributions of each node's own vertices."""
    deg = np.diff(ordered.indptr)
    n_lt = ordered.same
    n_eq = ordered.plus - ordered.same
    n_gt = deg - ordered.plus
    twice_in_contrib = 2 * n_gt + n_eq
    out_contrib = n_lt - n_gt
    return (
        forest.node_sums(twice_in_contrib.astype(np.int64, copy=False)),
        forest.node_sums(out_contrib.astype(np.int64, copy=False)),
        np.diff(forest.vert_ptr),
    )


def forest_base_totals(
    ordered: OrderedGraph, forest: CoreForest
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregated ``(2*in, out, num)`` totals of every forest node's core."""
    twice_in, out, num = _node_shell_deltas(ordered, forest)
    forest.aggregate_children(twice_in, out, num)
    return twice_in, out, num


def forest_triangle_totals(
    ordered: OrderedGraph,
    forest: CoreForest,
    *,
    backend=None,
    charges: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated triangle/triplet totals of every forest node's core.

    A precomputed per-vertex ``charges`` array (e.g. cached on a
    :class:`~repro.index.BestKIndex`) skips the O(m^1.5) pass.
    """
    if charges is None:
        charges = triangles_by_min_rank_vertex(ordered, backend=backend)
    tri = forest.node_sums(np.asarray(charges, dtype=np.int64))
    trip = triplet_group_deltas(ordered, forest.node_vertex_groups(), backend=backend)
    forest.aggregate_children(tri, trip)
    return tri, trip


def forest_node_values(
    twice_in: np.ndarray,
    out: np.ndarray,
    num: np.ndarray,
    tri: np.ndarray | None = None,
    trip: np.ndarray | None = None,
) -> tuple[PrimaryValues, ...]:
    """Every forest node's :class:`PrimaryValues`, from its aggregated totals.

    Metric-independent, so the shared :class:`~repro.index.BestKIndex`
    builds it once (with or without triangle counts) and every metric's
    :class:`KCoreScores` shares the tuple.
    """
    return tuple(map(
        PrimaryValues,
        num.tolist(),
        (twice_in // 2).tolist(),
        out.tolist(),
        repeat(None) if tri is None else tri.tolist(),
        repeat(None) if trip is None else trip.tolist(),
    ))


def scores_from_forest_totals(
    metric: Metric,
    totals: GraphTotals,
    forest: CoreForest,
    values: tuple[PrimaryValues, ...],
) -> KCoreScores:
    """Assemble :class:`KCoreScores` from the per-node primary values.

    The O(#nodes) scoring tail of Algorithm 5, split out so the shared
    :class:`~repro.index.BestKIndex` can reuse one aggregation (and one
    :func:`forest_node_values` tuple) across every metric.
    """
    scores = np.fromiter(
        (metric.score(pv, totals) for pv in values), dtype=np.float64, count=len(values)
    )
    return KCoreScores(metric, totals, forest, scores, values)


def kcore_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: OrderedGraph | None = None,
    forest: CoreForest | None = None,
    index=None,
) -> KCoreScores:
    """Score every connected k-core with Algorithm 5.

    Nodes are stored in descending coreness order, so children (strictly
    deeper cores) always precede their parent; one forward scan aggregates
    child totals into each node and adds the node's own shell deltas.
    O(n) scoring — O(m^1.5) with triangle metrics — after the O(m) index
    and forest builds.  Passing a :class:`~repro.index.BestKIndex` as
    ``index`` (takes precedence over ``ordered``/``forest``) fetches and
    memoizes every artifact on the index; results are identical.
    """
    metric = get_metric(metric)
    if index is not None:
        return index.core_scores(metric)
    if ordered is None:
        ordered = order_vertices(graph)
    if forest is None:
        forest = build_core_forest(graph, ordered.decomposition)
    totals = graph_totals(graph)

    twice_in, out, num = forest_base_totals(ordered, forest)
    tri = trip = None
    if metric.requires_triangles:
        tri, trip = forest_triangle_totals(ordered, forest)
    values = forest_node_values(twice_in, out, num, tri, trip)
    return scores_from_forest_totals(metric, totals, forest, values)


def baseline_kcore_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    forest: CoreForest | None = None,
) -> KCoreScores:
    """The paper's single-core baseline: score every core from scratch.

    The forest makes *retrieving* each core's vertex set cheap, but the
    primary values are recomputed per core by scanning its induced
    subgraph — ``O(sum_cores (q_i + |V(S_i)|))`` overall.
    """
    metric = get_metric(metric)
    if forest is None:
        forest = build_core_forest(graph)
    totals = graph_totals(graph)
    values = []
    scores = np.full(forest.num_nodes, np.nan)
    for i in range(forest.num_nodes):
        members = forest.core_vertices(i)
        pv = primary_values(graph, members, count_triangles=metric.requires_triangles)
        values.append(pv)
        scores[i] = metric.score(pv, totals)
    return KCoreScores(metric, totals, forest, scores, tuple(values))


def best_single_kcore(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: OrderedGraph | None = None,
    forest: CoreForest | None = None,
    index=None,
    use_baseline: bool = False,
) -> BestCoreResult:
    """Find the best single connected k-core (Problem 2).

    Set ``use_baseline=True`` to route through the from-scratch baseline
    (identical results, used for benchmarking).  Passing a
    :class:`~repro.index.BestKIndex` as ``index`` reuses its cached
    artifacts.
    """
    metric = get_metric(metric)
    if index is not None:
        forest = index.forest
        if use_baseline:
            scored = baseline_kcore_scores(graph, metric, forest=forest)
        else:
            scored = index.core_scores(metric)
    else:
        if ordered is None:
            ordered = order_vertices(graph)
        if forest is None:
            forest = build_core_forest(graph, ordered.decomposition)
        if use_baseline:
            scored = baseline_kcore_scores(graph, metric, forest=forest)
        else:
            scored = kcore_scores(graph, metric, ordered=ordered, forest=forest)
    node_id = scored.best_node()
    return BestCoreResult(
        metric_name=metric.name,
        k=int(forest.k[node_id]),
        score=float(scored.scores[node_id]),
        node_id=node_id,
        scores=scored,
        vertices=forest.core_vertices(node_id),
    )
