"""Weighted (s-core) extension — paper Section VII's weighted remark, realised.

Strength-based s-core decomposition plus the ``weighted`` hierarchy family:
``best_level_set(graph, "weighted", metric, edge_weights=w)`` scores every
s-core set under weighted community metrics in one top-down pass, exactly
as Algorithm 2 does for unweighted cores.
"""

from .decomposition import WeightedDecomposition, arc_weights, s_core_decomposition
from .family import WeightedFamily, weight_charges
from .metrics import (
    WeightedMetric,
    WeightedPrimaryValues,
    WeightedTotals,
    available_weighted_metrics,
    get_weighted_metric,
)

__all__ = [
    "WeightedDecomposition",
    "WeightedFamily",
    "WeightedMetric",
    "WeightedPrimaryValues",
    "WeightedTotals",
    "arc_weights",
    "available_weighted_metrics",
    "get_weighted_metric",
    "s_core_decomposition",
    "weight_charges",
]
