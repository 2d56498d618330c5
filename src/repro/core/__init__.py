"""The paper's primary contribution: best-k algorithms over core decomposition.

Submodules
----------
``decomposition``   Batagelj–Zaversnik core decomposition (Section II-A)
``ordering``        Algorithm 1: rank-ordered adjacency + position tags
``bestk_set``       Problem 1: baseline + Algorithms 2 and 3
``forest``          core forest: shell-sweep builder + Algorithm 4 (LCPS) reference
``bestk_core``      Problem 2: baseline + Algorithm 5
``naive``           slow definitional oracles for the test suite

The metric registry, primary values (Section II-C) and triangle/triplet
counting are shared by every family and live in :mod:`repro.engine`;
their names are re-exported here for convenience.
"""

from ..engine import (
    PAPER_METRICS,
    GraphTotals,
    Metric,
    PrimaryValues,
    available_metrics,
    count_triangles,
    count_triangles_and_triplets,
    count_triplets,
    get_metric,
    graph_totals,
    primary_values,
    register_metric,
)
from .bestk_core import (
    BestCoreResult,
    KCoreScores,
    baseline_kcore_scores,
    best_single_kcore,
    kcore_scores,
)
from .bestk_set import (
    BestKResult,
    KCoreSetScores,
    baseline_kcore_set_scores,
    best_kcore_set,
    kcore_set_scores,
)
from .combine import CombinedBestK, combined_kcore_scores, combined_kcore_set_scores
from .decomposition import ENGINES, CoreDecomposition, core_decomposition, resolve_engine
from .family import CoreFamily, core_level_view
from .forest import CoreForest, CoreNode, build_core_forest, build_core_forest_lcps
from .ordering import OrderedGraph, order_vertices

__all__ = [
    "BestCoreResult",
    "BestKResult",
    "CombinedBestK",
    "CoreDecomposition",
    "CoreFamily",
    "CoreForest",
    "CoreNode",
    "ENGINES",
    "GraphTotals",
    "KCoreScores",
    "KCoreSetScores",
    "Metric",
    "OrderedGraph",
    "PAPER_METRICS",
    "PrimaryValues",
    "available_metrics",
    "baseline_kcore_scores",
    "baseline_kcore_set_scores",
    "best_kcore_set",
    "best_single_kcore",
    "build_core_forest",
    "build_core_forest_lcps",
    "combined_kcore_scores",
    "combined_kcore_set_scores",
    "core_decomposition",
    "core_level_view",
    "count_triangles",
    "count_triangles_and_triplets",
    "count_triplets",
    "get_metric",
    "graph_totals",
    "kcore_scores",
    "kcore_set_scores",
    "order_vertices",
    "primary_values",
    "register_metric",
    "resolve_engine",
]
