"""The k-core hierarchy family — the paper's primary instantiation.

Registers ``core`` with the engine registry.  Coreness plays the level
role directly (Sections II-A and III); the family's only specialisation
is artifact reuse: a prebuilt :class:`~repro.core.ordering.OrderedGraph`
(Algorithm 1 for coreness) is *already* the level ordering, so
:func:`core_level_view` re-wraps it instead of running Algorithm 1 again.
"""

from __future__ import annotations

import numpy as np

from ..engine.family import HierarchyFamily, register_family
from ..engine.levels import LevelOrdering
from .decomposition import CoreDecomposition, core_decomposition
from .ordering import OrderedGraph

__all__ = ["CoreFamily", "core_level_view"]


def core_level_view(ordered: OrderedGraph) -> LevelOrdering:
    """View an :class:`OrderedGraph` as the coreness level ordering.

    The (coreness, id)-stable vertex order of :class:`CoreDecomposition`
    is exactly the order :func:`~repro.engine.level_ordering` would
    produce, and the rank/tag arrays are built from it — so every array is
    shared, nothing is recomputed, and downstream results are bit-identical
    to a fresh Algorithm 1 run.
    """
    decomp = ordered.decomposition
    return LevelOrdering(
        graph=ordered.graph,
        levels=decomp.coreness,
        rank=ordered.rank,
        indptr=ordered.indptr,
        indices=ordered.indices,
        same=ordered.same,
        plus=ordered.plus,
        high=ordered.high,
        order=decomp.order,
        level_start=decomp.shell_start[: decomp.kmax + 2],
    )


class CoreFamily(HierarchyFamily):
    """k-core: level(v) = coreness(v)."""

    name = "core"
    title = "k-core"
    level_label = "k"
    paper_section = "III-IV"
    description = "maximal subgraphs where every vertex keeps degree >= k"
    supports_store = True
    #: Coreness is exactly what repro.dynamic's subcore maintenance
    #: repairs, and CoreDecomposition rebuilds deterministically from the
    #: repaired array alone.
    supports_incremental = True

    def decompose(self, graph, *, backend=None, **params) -> CoreDecomposition:
        return core_decomposition(graph, backend=backend)

    def levels(self, decomposition: CoreDecomposition, **params) -> np.ndarray:
        return decomposition.coreness

    def index_ordering(self, index, levels, **params) -> LevelOrdering:
        # The index already holds (or will lazily build) the Algorithm 1
        # ordering for Problem 2; reuse it rather than re-sorting the arcs.
        return core_level_view(index.ordered)

    def dump_decomposition(self, decomposition: CoreDecomposition):
        # order/shell_start are derived in __post_init__, peel_order is
        # lazy; the coreness array alone reconstructs everything.
        return {"coreness": decomposition.coreness}

    def load_decomposition(self, graph, arrays, **params) -> CoreDecomposition:
        return CoreDecomposition(graph, np.asarray(arrays["coreness"]))


register_family(CoreFamily())
