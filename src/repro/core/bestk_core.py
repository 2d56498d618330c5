"""Finding the best single k-core — paper Section IV.

Candidates are **all** connected k-cores of **all** orders ``0..kmax`` —
exactly the nodes of the core forest.  Both paths are the engine's
generic Algorithm 5 machinery (:mod:`repro.engine.forest`) run with the
``core`` family:

* :func:`baseline_kcore_scores` — the paper's baseline (Section IV-B):
  reconstruct each core's vertex set from the forest and recompute its
  primary values from scratch;
* :func:`kcore_scores` — Algorithm 5: each forest node's primary values
  are the sum of its children's plus the contribution of its own shell
  vertices (the same per-vertex deltas as Algorithms 2/3, grouped by node
  instead of by shell).

Both return a :class:`~repro.engine.LevelNodeScores`;
:func:`best_single_kcore` picks the winner, with ties broken towards the
largest k, then the lowest node id — the core with the smallest shell
vertex, as the forest numbers nodes canonically
(:class:`~repro.engine.forest.LevelForest`).
"""

from __future__ import annotations

from ..engine.family import BestLevelResult
from ..engine.forest import (
    LevelForest,
    LevelNodeScores,
    baseline_family_node_scores,
    best_node_result,
    family_node_scores,
)
from ..engine.levels import LevelOrdering
from ..engine.metrics import Metric
from ..graph.csr import Graph
from .ordering import _decomposition_of

__all__ = ["kcore_scores", "baseline_kcore_scores", "best_single_kcore"]


def kcore_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: LevelOrdering | None = None,
    forest: LevelForest | None = None,
    index=None,
) -> LevelNodeScores:
    """Score every connected k-core with Algorithm 5.

    O(n) scoring — O(m^1.5) with triangle metrics — after the O(m) index
    and forest builds.  Passing a :class:`~repro.index.BestKIndex` as
    ``index`` (takes precedence over ``ordered``/``forest``) fetches and
    memoizes every artifact on the index; results are identical.
    """
    if index is not None:
        return index.core_scores(metric)
    return family_node_scores(
        graph, "core", metric,
        decomposition=_decomposition_of(graph, ordered), ordering=ordered, forest=forest,
    )


def baseline_kcore_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    forest: LevelForest | None = None,
) -> LevelNodeScores:
    """The paper's single-core baseline: score every core from scratch.

    The forest makes *retrieving* each core's vertex set cheap, but the
    primary values are recomputed per core by scanning its induced
    subgraph — ``O(sum_cores (q_i + |V(S_i)|))`` overall.
    """
    return baseline_family_node_scores(graph, "core", metric, forest=forest)


def best_single_kcore(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: LevelOrdering | None = None,
    forest: LevelForest | None = None,
    index=None,
    use_baseline: bool = False,
) -> BestLevelResult:
    """Find the best single connected k-core (Problem 2).

    Set ``use_baseline=True`` to route through the from-scratch baseline
    (identical results, used for benchmarking).  Passing a
    :class:`~repro.index.BestKIndex` as ``index`` reuses its cached
    artifacts.
    """
    if index is not None and not use_baseline:
        return index.best_core(metric)
    if index is not None:
        forest = index.artifact("core", "forest")
    if use_baseline:
        scored = baseline_kcore_scores(graph, metric, forest=forest)
    else:
        scored = kcore_scores(graph, metric, ordered=ordered, forest=forest)
    return best_node_result(scored, "core")
