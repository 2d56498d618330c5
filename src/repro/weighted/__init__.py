"""Weighted (s-core) extension — paper Section VII's weighted remark, realised.

Strength-based s-core decomposition plus the ``weighted`` hierarchy family:
``best_level_set(graph, "weighted", metric, edge_weights=w)`` scores every
s-core set under weighted community metrics in one top-down pass, exactly
as Algorithm 2 does for unweighted cores.  The weighted metrics are the
engine's own, under the names of :data:`repro.engine.metrics.WEIGHTED_METRICS`,
resolved by :func:`get_weighted_metric`.
"""

from ..engine.metrics import get_weighted_metric
from .decomposition import WeightedDecomposition, arc_weights, s_core_decomposition
from .family import WeightedFamily, weight_charges

__all__ = [
    "WeightedDecomposition",
    "WeightedFamily",
    "arc_weights",
    "get_weighted_metric",
    "s_core_decomposition",
    "weight_charges",
]
