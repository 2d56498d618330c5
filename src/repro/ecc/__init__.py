"""k-edge-connected-component extension: decomposition and the ``ecc`` family.

The third hierarchy (after cores and trusses) driven through the paper's
generalised best-k machinery, as its introduction anticipates for k-ecc:
``best_level_set(graph, "ecc", metric)`` scores every k-ECC set.
"""

from .decomposition import EccDecomposition, ecc_decomposition, k_edge_components
from .family import EccFamily
from .mincut import stoer_wagner

__all__ = [
    "EccDecomposition",
    "EccFamily",
    "ecc_decomposition",
    "k_edge_components",
    "stoer_wagner",
]
