"""Finding the best k-core set — paper Section III.

Thin shims over the generic hierarchy engine: the k-core family was the
paper's original instantiation, and its scan loop, result records and
baseline now live once in :mod:`repro.engine` (shared with the truss,
weighted and ECC families).  Every entry point here delegates with the
``core`` family and returns bit-identical results to the historic
implementations:

* :func:`kcore_set_scores` — the optimal path (Algorithms 2/3) via
  :func:`repro.engine.family_set_scores`;
* :func:`baseline_kcore_set_scores` — the Section III-A from-scratch
  baseline via :func:`repro.engine.baseline_family_set_scores`;
* :func:`best_kcore_set` — Problem 1 via :func:`repro.engine.best_level_set`.

The shell-arithmetic helpers (:func:`shell_accumulate`,
:func:`triangle_triplet_by_shell`, ...) remain as the historic k-core
vocabulary over the engine's level helpers; the shared
:class:`~repro.index.BestKIndex` still consumes them.
"""

from __future__ import annotations

import numpy as np

from ..engine.family import (
    BestLevelResult,
    baseline_family_set_scores,
    best_level_set,
    family_set_scores,
)
from ..engine.levels import (
    LevelSetScores,
    accumulate_level_totals,
    cumulate_from_top,
    scores_from_level_totals,
    triangle_level_increments,
    unweighted_level_charges,
)
from ..engine.metrics import Metric, get_metric
from ..graph.csr import Graph
from .decomposition import CoreDecomposition
from .family import core_level_view
from .ordering import OrderedGraph

__all__ = [
    "KCoreSetScores",
    "BestKResult",
    "kcore_set_scores",
    "baseline_kcore_set_scores",
    "best_kcore_set",
    "shell_accumulate",
    "triangle_triplet_by_shell",
    "cumulate_from_top",
    "scores_from_shell_totals",
]

#: Historic names for the engine's records (``kmax``/``best_k`` intact).
KCoreSetScores = LevelSetScores
BestKResult = BestLevelResult


# ----------------------------------------------------------------------
# Shared shell arithmetic (k-core vocabulary over the engine helpers)
# ----------------------------------------------------------------------

def shell_accumulate(ordered: OrderedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-k totals of ``2*in``, ``out`` and ``num`` for every ``C_k``.

    Returns three arrays of length ``kmax + 2`` indexed by k (the final
    entry, for ``k = kmax + 1``, is zero — the empty set).  This is
    Algorithm 2's accumulation, vectorised as suffix sums over the
    coreness-sorted order.
    """
    decomp = ordered.decomposition
    twice_inside, boundary = unweighted_level_charges(ordered)
    num_k, twice_in_k, out_k = accumulate_level_totals(
        twice_inside, boundary, decomp.order, decomp.shell_start[: decomp.kmax + 2]
    )
    return twice_in_k, out_k, num_k


def triangle_triplet_by_shell(
    ordered: OrderedGraph, *, backend=None, charges: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3's per-shell increments of triangles and triplets.

    Returns ``(tri_new, trip_new)``, arrays of length ``kmax + 1`` where
    index k holds the number of triangles/triplets present in ``C_k`` but
    not in ``C_{k+1}``.  Cumulating from the top yields the counts of every
    k-core set.  A precomputed ``charges`` array (e.g. cached on a
    :class:`~repro.index.BestKIndex`) skips the O(m^1.5) pass.
    """
    decomp = ordered.decomposition
    return triangle_level_increments(
        ordered,
        decomp.order,
        decomp.shell_start[: decomp.kmax + 2],
        backend=backend,
        charges=charges,
    )


def scores_from_shell_totals(
    metric: Metric,
    totals,
    twice_in_k: np.ndarray,
    out_k: np.ndarray,
    num_k: np.ndarray,
    tri_k: np.ndarray | None = None,
    trip_k: np.ndarray | None = None,
) -> KCoreSetScores:
    """Assemble :class:`KCoreSetScores` from precomputed per-``C_k`` totals.

    The historic argument order (``in``/``out``/``num``) over the engine's
    :func:`~repro.engine.scores_from_level_totals` scoring tail.
    """
    return scores_from_level_totals(metric, totals, num_k, twice_in_k, out_k, tri_k, trip_k)


# ----------------------------------------------------------------------
# Public scoring entry points
# ----------------------------------------------------------------------

def kcore_set_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    ordered: OrderedGraph | None = None,
    index=None,
) -> KCoreSetScores:
    """Score every k-core set with the optimal algorithm (Alg. 2 / Alg. 3).

    Parameters
    ----------
    graph:
        Host graph.
    metric:
        Metric name, abbreviation, or :class:`Metric` instance.
    ordered:
        A prebuilt Algorithm 1 index; computed on the fly when omitted.
        Reusing one index across metrics is exactly the paper's "index built
        once, scored many times" scenario.
    index:
        A :class:`~repro.index.BestKIndex`; when given it takes precedence
        over ``ordered`` and every expensive artifact (decomposition,
        ordering, triangle charges, accumulated totals) is fetched from —
        and memoized on — the index.  Results are identical.
    """
    metric = get_metric(metric)
    return family_set_scores(
        graph,
        "core",
        metric,
        decomposition=None if ordered is None else ordered.decomposition,
        ordering=None if ordered is None else core_level_view(ordered),
        index=index,
    )


def baseline_kcore_set_scores(
    graph: Graph,
    metric: str | Metric,
    *,
    decomposition: CoreDecomposition | None = None,
) -> KCoreSetScores:
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
    ordered: OrderedGraph | None = None,
    index=None,
    use_baseline: bool = False,
) -> BestKResult:
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
        decomposition=None if ordered is None else ordered.decomposition,
        ordering=None if ordered is None else core_level_view(ordered),
        index=index,
        use_baseline=use_baseline,
    )
