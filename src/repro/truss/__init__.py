"""k-truss extension (paper Section VI-B): decomposition, the ``truss`` family
and the truss forest.

Best-k over k-truss vertex sets is the engine call
``best_level_set(graph, "truss", metric)`` (or ``BestKIndex.best_level``).
"""

from ..engine import LevelOrdering, LevelSetScores, level_ordering, level_set_scores
from .decomposition import TrussDecomposition, truss_decomposition
from .family import TrussFamily
from .forest import (
    BestSingleTrussResult,
    TrussForest,
    TrussNode,
    best_single_ktruss,
    build_truss_forest,
)

__all__ = [
    "BestSingleTrussResult",
    "LevelOrdering",
    "LevelSetScores",
    "TrussDecomposition",
    "TrussFamily",
    "TrussForest",
    "TrussNode",
    "best_single_ktruss",
    "build_truss_forest",
    "level_ordering",
    "level_set_scores",
    "truss_decomposition",
]
