"""The k-ECC hierarchy family.

Registers ``ecc`` with the engine registry.  The per-vertex ECC level —
the largest k whose k-edge-connected component contains the vertex —
plays the level role; everything else is the engine's defaults.
"""

from __future__ import annotations

import numpy as np

from ..engine.family import HierarchyFamily, register_family
from .decomposition import EccDecomposition, ecc_decomposition

__all__ = ["EccFamily"]


class EccFamily(HierarchyFamily):
    """k-ECC: level(v) = max k whose k-edge-connected component contains v."""

    name = "ecc"
    title = "k-ECC"
    level_label = "k"
    paper_section = "VI-B"
    description = "maximal subgraphs that survive removal of any k-1 edges"
    supports_store = True
    #: Connectivity cuts are non-local; no incremental repair — rebuild on change.
    supports_incremental = False

    def decompose(self, graph, *, backend=None, max_k=None, **params) -> EccDecomposition:
        return ecc_decomposition(graph, max_k=max_k, backend=backend)

    def levels(self, decomposition: EccDecomposition, **params) -> np.ndarray:
        return decomposition.level

    def cache_token(self, *, max_k=None, **params):
        # max_k truncates the sweep, so levels differ across values of it.
        return ("max_k", None if max_k is None else int(max_k))

    def store_token(self, *, max_k=None, **params) -> str:
        return f"max_k={'-' if max_k is None else int(max_k)}"

    def dump_decomposition(self, decomposition: EccDecomposition):
        return {"level": decomposition.level}

    def load_decomposition(self, graph, arrays, **params) -> EccDecomposition:
        return EccDecomposition(graph, np.asarray(arrays["level"]))


register_family(EccFamily())
