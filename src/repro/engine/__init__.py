"""repro.engine — the shared hierarchy-engine layer (paper Section VI-B).

The lowest shared layer above :mod:`repro.graph` and :mod:`repro.kernels`:
metrics, primary values, triangle charging, the generalised Algorithm 1-3
level machinery, the :class:`HierarchyFamily` protocol with its registry,
and the generic best-level entry points every family (k-core, k-truss,
weighted s-core, k-ECC, and user-registered ones) routes through.

Family packages depend on this module — never on each other (enforced by
``scripts/check_imports.py``); the engine itself imports family packages
only lazily, by name, inside :func:`get_family`.
"""

from .family import (
    RAW_LEVELS,
    BestLevelResult,
    HierarchyFamily,
    available_families,
    baseline_family_set_scores,
    best_level_set,
    family_set_scores,
    get_family,
    register_family,
)
from .forest import (
    LevelForest,
    LevelNode,
    LevelNodeScores,
    baseline_family_node_scores,
    best_connected_level_set,
    build_level_forest,
    family_node_scores,
)
from .levels import (
    LevelOrdering,
    LevelSetScores,
    accumulate_level_totals,
    cumulate_from_top,
    level_ordering,
    level_set_scores,
    scores_from_level_totals,
    triangle_level_increments,
    unweighted_level_charges,
)
from .metrics import (
    PAPER_METRICS,
    WEIGHTED_METRICS,
    Metric,
    available_metrics,
    get_metric,
    get_weighted_metric,
    register_metric,
)
from .primary import GraphTotals, PrimaryColumns, PrimaryValues, graph_totals, primary_values
from .triangles import (
    count_triangles,
    count_triangles_and_triplets,
    count_triplets,
    triangles_by_min_rank_vertex,
    triplet_charges,
)

__all__ = [
    "BestLevelResult",
    "GraphTotals",
    "HierarchyFamily",
    "LevelForest",
    "LevelNode",
    "LevelNodeScores",
    "LevelOrdering",
    "LevelSetScores",
    "Metric",
    "PAPER_METRICS",
    "PrimaryColumns",
    "PrimaryValues",
    "RAW_LEVELS",
    "accumulate_level_totals",
    "available_families",
    "available_metrics",
    "baseline_family_node_scores",
    "baseline_family_set_scores",
    "best_connected_level_set",
    "best_level_set",
    "build_level_forest",
    "count_triangles",
    "count_triangles_and_triplets",
    "count_triplets",
    "cumulate_from_top",
    "family_node_scores",
    "family_set_scores",
    "get_family",
    "get_metric",
    "get_weighted_metric",
    "graph_totals",
    "level_ordering",
    "level_set_scores",
    "primary_values",
    "register_family",
    "register_metric",
    "scores_from_level_totals",
    "triangle_level_increments",
    "triangles_by_min_rank_vertex",
    "triplet_charges",
    "unweighted_level_charges",
    "WEIGHTED_METRICS",
]
