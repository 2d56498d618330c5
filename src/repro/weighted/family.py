"""The weighted s-core hierarchy family.

Registers ``weighted`` with the engine registry.  Two things distinguish
it from the unweighted families, both expressed as hook overrides:

* the hierarchy is parametrised — ``edge_weights`` (mandatory) and the
  quantisation ``num_levels`` arrive via ``**params`` and feed
  :meth:`cache_token` so a :class:`~repro.index.BestKIndex` can
  invalidate when they change;
* the per-vertex charges are *weight sums*, not edge counts, so
  :meth:`charges`, :meth:`columns`, :meth:`totals` and
  :meth:`subset_values` fill the primary-value ``num_edges`` and
  ``num_boundary`` with float weights (W(S) and Wb(S)) and the host total
  ``num_edges`` with the total weight, and :meth:`thresholds` exposes the
  real-valued strength of each quantised level.

The suffix-sum accumulation and the metrics are the engine's: the same
arithmetic and the same column functions as the unweighted families,
evaluated in float64.  The metric names are the weighted aliases of
:data:`~repro.engine.metrics.WEIGHTED_METRICS`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..engine.family import HierarchyFamily, register_family
from ..engine.metrics import WEIGHTED_METRICS, get_weighted_metric
from ..engine.primary import GraphTotals, PrimaryColumns, PrimaryValues
from .decomposition import WeightedDecomposition, s_core_decomposition

__all__ = ["WeightedFamily", "weight_charges"]


def weight_charges(
    graph, decomposition: WeightedDecomposition, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex ``(2*inside, boundary)`` weight contributions at its level."""
    n = graph.num_vertices
    weights = decomposition.arc_weights
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst = graph.indices
    gt = levels[dst] > levels[src]
    eq = levels[dst] == levels[src]
    lt = levels[dst] < levels[src]
    w_gt = np.bincount(src[gt], weights=weights[gt], minlength=n)
    w_eq = np.bincount(src[eq], weights=weights[eq], minlength=n)
    w_lt = np.bincount(src[lt], weights=weights[lt], minlength=n)
    twice_inside = 2.0 * w_gt + w_eq
    boundary = w_lt - w_gt
    return twice_inside, boundary


class WeightedFamily(HierarchyFamily):
    """Weighted s-core: level(v) = quantised peeling strength of v.

    Family params: ``edge_weights`` (required), ``num_levels`` (default 64,
    the strength quantisation resolution).
    """

    name = "weighted"
    title = "weighted s-core"
    level_label = "s"
    paper_section = "VI-B"
    description = "maximal subgraphs where every vertex keeps strength >= s"
    #: Weight charges are floats; Algorithm 3's triangle path does not apply.
    supports_triangles = False
    default_metric = "weighted_average_degree"
    batch_metrics = WEIGHTED_METRICS
    supports_store = True
    #: Quantised strengths shift globally with any weight change — rebuild on change.
    supports_incremental = False

    def decompose(
        self, graph, *, backend=None, edge_weights=None, num_levels: int = 64, **params
    ) -> WeightedDecomposition:
        if edge_weights is None:
            raise TypeError("the weighted family requires edge_weights=")
        return s_core_decomposition(graph, edge_weights, backend=backend)

    def levels(
        self, decomposition: WeightedDecomposition, *, num_levels: int = 64, **params
    ) -> np.ndarray:
        return decomposition.integer_levels(num_levels)

    def resolve_metric(self, metric):
        return get_weighted_metric(metric)

    def totals(self, graph, decomposition, *, edge_weights=None, **params) -> GraphTotals:
        if edge_weights is None:
            edge_weights = decomposition.edge_weights
        return GraphTotals(
            graph.num_vertices, float(np.asarray(edge_weights, dtype=np.float64).sum())
        )

    def charges(self, graph, decomposition, levels, ordering, **params):
        return weight_charges(graph, decomposition, levels)

    def columns(self, num, twice_inside, boundary, triangles=None, triplets=None):
        # A boundary sum a rounding below zero is clamped to 0.0; -0.0
        # stays -0.0, as ``max(b, 0.0)`` leaves it.
        return PrimaryColumns(num, twice_inside / 2.0, np.where(boundary < 0.0, 0.0, boundary))

    def thresholds(
        self, decomposition: WeightedDecomposition, max_level: int, *, num_levels: int = 64, **params
    ) -> np.ndarray:
        return np.asarray([
            decomposition.threshold_of_integer_level(k, num_levels)
            for k in range(max_level + 1)
        ])

    def subset_values(
        self, graph, decomposition, vertices, *, count_triangles=False, **params
    ) -> PrimaryValues:
        # From-scratch weight sums over the arc list (the weighted baseline):
        # both the internal and the boundary sum visit each edge from both
        # endpoints, hence the symmetric halving.
        n = graph.num_vertices
        weights = decomposition.arc_weights
        src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
        dst = graph.indices
        member = np.zeros(n, dtype=bool)
        member[np.asarray(vertices, dtype=np.int64)] = True
        inside_mask = member[src] & member[dst]
        boundary_mask = member[src] != member[dst]
        return PrimaryValues(
            num_vertices=int(member.sum()),
            num_edges=float(weights[inside_mask].sum()) / 2.0,
            num_boundary=float(weights[boundary_mask].sum()) / 2.0,
        )

    def cache_token(self, *, edge_weights=None, num_levels: int = 64, **params):
        if edge_weights is None:
            raise TypeError("the weighted family requires edge_weights=")
        return (id(edge_weights), int(num_levels))

    def store_token(self, *, edge_weights=None, num_levels: int = 64, **params) -> str:
        # The in-process cache_token uses array *identity* (cheap, but
        # meaningless on disk); the store key hashes the weight contents so
        # two runs with equal weights share a bundle and a mutated weight
        # array can never hit a stale one.
        if edge_weights is None:
            raise TypeError("the weighted family requires edge_weights=")
        # The contiguous float64 buffer is hashed in place: the same bytes
        # as ``tobytes()``, without the copy.
        weights = np.ascontiguousarray(edge_weights, dtype=np.float64)
        digest = hashlib.sha256(weights).hexdigest()
        return f"w={digest}:L={int(num_levels)}"

    def dump_decomposition(self, decomposition: WeightedDecomposition):
        # edge_weights are NOT stored: they are part of the bundle key and
        # arrive via **params on load, so the bundle stays O(n).
        return {"level": decomposition.level, "peel_order": decomposition.peel_order}

    def load_decomposition(
        self, graph, arrays, *, edge_weights=None, num_levels: int = 64, **params
    ) -> WeightedDecomposition:
        if edge_weights is None:
            raise TypeError("the weighted family requires edge_weights=")
        return WeightedDecomposition(
            graph,
            np.ascontiguousarray(edge_weights, dtype=np.float64),
            np.asarray(arrays["level"]),
            np.asarray(arrays["peel_order"]),
        )


register_family(WeightedFamily())
