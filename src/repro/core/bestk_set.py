"""Finding the best k-core set — paper Section III.

The paper's own names for Problem 1 over the generic hierarchy engine: the
k-core family was the paper's original instantiation, and its scan loop,
result records and baseline now live once in :mod:`repro.engine` (shared
with the truss, weighted and ECC families).  Each entry point here is one
engine call with the ``core`` family:

* :func:`kcore_set_scores` — the optimal path (Algorithms 2/3) via
  :func:`repro.engine.family_set_scores`;
* :func:`baseline_kcore_set_scores` — the Section III-A from-scratch
  baseline via :func:`repro.engine.baseline_family_set_scores`;
* :func:`best_kcore_set` — Problem 1 via :func:`repro.engine.best_level_set`.
"""

from __future__ import annotations

from ..engine.family import (
    BestLevelResult,
    baseline_family_set_scores,
    best_level_set,
    family_set_scores,
)
from ..engine.levels import LevelOrdering, LevelSetScores
from ..engine.metrics import Metric
from ..graph.csr import Graph
from .decomposition import CoreDecomposition
from .ordering import _decomposition_of

__all__ = ["kcore_set_scores", "baseline_kcore_set_scores", "best_kcore_set"]


def kcore_set_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: LevelOrdering | None = None,
    index=None,
) -> LevelSetScores:
    """Score every k-core set with the optimal algorithm (Alg. 2 / Alg. 3).

    Parameters
    ----------
    graph:
        Host graph.
    metric:
        Metric name, abbreviation, or :class:`Metric` instance.
    ordered:
        A prebuilt Algorithm 1 index (:func:`~repro.core.order_vertices`);
        computed on the fly when omitted.
        Reusing one index across metrics is exactly the paper's "index built
        once, scored many times" scenario.
    index:
        A :class:`~repro.index.BestKIndex`; when given it takes precedence
        over ``ordered`` and every expensive artifact (decomposition,
        ordering, triangle charges, accumulated totals) is fetched from —
        and memoized on — the index.  Results are identical.
    """
    return family_set_scores(
        graph,
        "core",
        metric,
        decomposition=_decomposition_of(graph, ordered),
        ordering=ordered,
        index=index,
    )


def baseline_kcore_set_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    decomposition: CoreDecomposition | None = None,
) -> LevelSetScores:
    """The paper's baseline: recompute every ``C_k`` from scratch.

    Core decomposition and the bin-sorted vertex order make *retrieving* the
    vertex set of ``C_k`` cheap, but the primary values are recomputed per k
    by scanning the induced subgraph — ``O(sum_k (q_k + |V(C_k)|))`` overall,
    the cost Algorithm 2/3 eliminate.
    """
    return baseline_family_set_scores(graph, "core", metric, decomposition=decomposition)


def best_kcore_set(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: LevelOrdering | None = None,
    index=None,
    use_baseline: bool = False,
) -> BestLevelResult:
    """Find ``k*`` such that ``C_{k*}`` maximises ``metric`` (Problem 1).

    Ties are broken towards the largest k, matching the paper's Table IV.
    Set ``use_baseline=True`` to route through the from-scratch baseline
    (useful for benchmarking; identical results).  Passing a
    :class:`~repro.index.BestKIndex` as ``index`` reuses its cached
    artifacts.
    """
    return best_level_set(
        graph,
        "core",
        metric,
        decomposition=_decomposition_of(graph, ordered),
        ordering=ordered,
        index=index,
        use_baseline=use_baseline,
    )

