"""The k-core hierarchy family — the paper's primary instantiation.

Registers ``core`` with the engine registry.  Coreness plays the level
role directly (Sections II-A and III); the family's only specialisation
is artifact reuse: Algorithm 1 for coreness
(:func:`~repro.core.ordering.order_vertices`) takes its vertex order from
the decomposition's bin sort instead of sorting the levels again.
"""

from __future__ import annotations

import numpy as np

from ..engine.family import HierarchyFamily, register_family
from ..engine.levels import LevelOrdering
from .decomposition import CoreDecomposition, core_decomposition
from .ordering import order_vertices

__all__ = ["CoreFamily"]


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

    def ordering(self, graph, decomposition, levels, *, base=None, touched=None) -> LevelOrdering:
        return order_vertices(graph, decomposition, base=base, touched=touched)

    def dump_decomposition(self, decomposition: CoreDecomposition):
        # shell_start is derived in __post_init__, order and peel_order
        # are lazy; the coreness array alone reconstructs everything.
        return {"coreness": decomposition.coreness}

    def load_decomposition(self, graph, arrays, **params) -> CoreDecomposition:
        return CoreDecomposition(graph, np.asarray(arrays["coreness"]))


register_family(CoreFamily())
