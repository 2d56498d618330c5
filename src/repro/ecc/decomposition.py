"""k-ECC decomposition — another hierarchy for the best-k machinery.

A *k-edge-connected component* (k-ECC) is a maximal subgraph that stays
connected under the removal of any ``k - 1`` edges.  Like cores and
trusses, k-ECCs nest (``(k+1)``-ECCs sit inside k-ECCs), so the paper's
Section VI-B argument applies: assign each vertex its **ECC level** — the
largest k whose k-ECC contains it non-trivially — and the generalised
level machinery scores every k-ECC set.

The decomposition here follows the classic recursive-cut scheme (Chang et
al., SIGMOD 2013, in spirit): within each candidate piece, compute a global
min cut (Stoer–Wagner); if it is smaller than ``k``, split along the cut
and recurse, otherwise the piece is a k-ECC.  Before every cut the piece
is pruned to its k-core (a k-ECC has minimum degree >= k inside itself)
and split into connected pieces, so Stoer–Wagner only sees pieces that
survive the peel; k-ECCs are unique, so the pruning cannot change them.
The peel and the component split are array passes on the kernel backend
over the piece's induced subgraph, and the cut itself runs as dense numpy
row operations (:mod:`repro.ecc.mincut`).  Still cubic in a piece's size,
so meant for the moderate scales of the examples, tests and benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import Graph
from ..graph.views import induced_subgraph
from ..kernels import KernelBackend, get_backend
from .mincut import stoer_wagner

__all__ = ["EccDecomposition", "ecc_decomposition", "k_edge_components"]


def k_edge_components(
    graph: Graph,
    k: int,
    *,
    within: np.ndarray | None = None,
    backend: str | KernelBackend | None = None,
) -> list[np.ndarray]:
    """All k-edge-connected components with at least two vertices.

    Computed by recursive min-cut splitting restricted to ``within`` (the
    whole graph by default), pruning every candidate piece to its k-core
    and splitting it into connected pieces before each cut.  For ``k = 1``
    this is exactly the connected components with >= 2 vertices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    kernels = get_backend(backend)
    if within is None:
        sub, ids = graph, np.arange(graph.num_vertices, dtype=np.int64)
    else:
        sub, ids = induced_subgraph(graph, within)
    if k == 1:
        labels, count = kernels.connected_components(sub, np.ones(sub.num_vertices, dtype=bool))
        # Components are numbered by ascending minimum member.
        return [ids[members] for members in _label_groups(labels, count) if len(members) >= 2]
    out: list[np.ndarray] = []
    # Each candidate is a local graph plus the original ids of its vertices.
    stack = [(sub, ids)]
    while stack:
        piece, piece_ids = stack.pop()
        keep = kernels.peel_coreness(piece) >= k
        labels, count = kernels.connected_components(piece, keep)
        if count == 1 and keep.all():
            # A connected piece that is its own k-core: cut it.
            edges = piece.edge_array()
            cut_value, side = stoer_wagner(
                piece.num_vertices, np.column_stack([edges, np.ones(len(edges))])
            )
            if cut_value >= k:
                out.append(piece_ids)
                continue
            labels = np.zeros(piece.num_vertices, dtype=np.int64)
            labels[side] = 1
            count = 2
        for members in _label_groups(labels, count):
            if len(members) >= 2:
                stack.append((induced_subgraph(piece, members)[0], piece_ids[members]))
    return sorted(out, key=lambda c: int(c[0]))


def _label_groups(labels: np.ndarray, count: int) -> list[np.ndarray]:
    """Vertices of each component ``0..count-1``, ascending within each."""
    members = np.flatnonzero(labels >= 0)
    order = members[np.argsort(labels[members], kind="stable")]
    return np.split(order, np.cumsum(np.bincount(labels[members], minlength=count))[:-1])


@dataclass(frozen=True)
class EccDecomposition:
    """Per-vertex ECC levels (the largest k whose k-ECC contains v)."""

    graph: Graph
    #: ``level[v]``: the vertex's ECC level (0 for vertices in no 1-ECC,
    #: i.e. isolated vertices).
    level: np.ndarray

    @property
    def kmax(self) -> int:
        """The deepest edge connectivity present."""
        return int(self.level.max()) if len(self.level) else 0

    def kecc_set_vertices(self, k: int) -> np.ndarray:
        """Vertices of the k-ECC set (level >= k)."""
        return np.flatnonzero(self.level >= k)


def ecc_decomposition(
    graph: Graph,
    *,
    max_k: int | None = None,
    backend: str | KernelBackend | None = None,
) -> EccDecomposition:
    """Compute every vertex's ECC level by sweeping k upwards.

    k-ECCs for level ``k + 1`` are searched only inside the level-``k``
    components (containment), so each sweep narrows.  ``max_k`` caps the
    sweep (defaults to the degeneracy bound: edge connectivity never
    exceeds the minimum degree of the component, which core decomposition
    bounds by kmax).
    """
    n = graph.num_vertices
    level = np.zeros(n, dtype=np.int64)
    if graph.num_edges == 0:
        return EccDecomposition(graph, level)
    if max_k is None:
        # lambda(v) <= coreness, so the degeneracy bounds the sweep; the
        # peel kernel gives it without depending on the core family.
        max_k = int(get_backend(backend).peel_coreness(graph).max())
    components = k_edge_components(graph, 1, backend=backend)
    for comp in components:
        level[comp] = 1
    k = 2
    current = components
    while current and k <= max_k:
        next_components: list[np.ndarray] = []
        for comp in current:
            for sub in k_edge_components(graph, k, within=comp, backend=backend):
                level[sub] = k
                next_components.append(sub)
        current = next_components
        k += 1
    return EccDecomposition(graph, level)
