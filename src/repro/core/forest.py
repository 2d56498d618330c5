"""The forest hierarchy of k-cores — paper Section IV-A, Algorithm 4.

Every connected k-core maps to one *tree node* holding exactly the core's
vertices of coreness k (Definition 6); the node's parent is the closest
enclosing k'-core with k' < k (Definition 7).  The whole hierarchy is a
forest with one tree per connected component of the graph, storable in O(n).

Two independent constructions are provided:

* :func:`build_core_forest` — the vectorised shell sweep of
  :func:`repro.engine.forest.shell_sweep` over Algorithm 1's ordering:
  each edge listed once under its lower-rank endpoint, so grouped by
  ``min(c(u), c(v))`` without a sort, then a numpy union-find per shell
  from ``kmax`` down.  Every caller uses this one.
* :func:`build_core_forest_lcps` — the paper's LCPS (Level Component
  Priority Search [42]) with a bucket priority queue, O(m) time in a
  Python loop.  Traversal expands the highest-priority frontier vertex,
  where an edge ``(v, w)`` enqueues ``w`` at priority ``min(c(v), c(w))`` —
  the level at which that edge becomes internal.  It is kept as the
  paper's algorithm and the reference the tests compare the sweep with.

Both apply the paper's post-processing: nodes that store no vertices are
compressed away and the surviving nodes are sorted by descending coreness
(the array ``T`` consumed by Algorithm 5), ties by smallest shell vertex,
so the two yield identical arrays.  Both return the engine's
:class:`~repro.engine.forest.LevelForest`, the one forest type of every
family: a node's ``k`` is the order of its k-core, its ``vertices`` the
core's coreness-k members, and
:meth:`~repro.engine.forest.LevelForest.component_vertices` the whole
core.
"""

from __future__ import annotations

import numpy as np

from ..engine.forest import LevelForest, shell_sweep
from ..engine.levels import LevelOrdering
from ..graph.csr import Graph
from .decomposition import CoreDecomposition, core_decomposition
from .ordering import order_vertices

__all__ = ["build_core_forest", "build_core_forest_lcps"]


def build_core_forest(
    graph: Graph,
    decomposition: CoreDecomposition | None = None,
    *,
    ordered: LevelOrdering | None = None,
) -> LevelForest:
    """Construct the core forest with the vectorised shell sweep.

    ``ordered`` is the graph's Algorithm 1 ordering when the caller
    already holds one; otherwise :func:`order_vertices` builds it.
    """
    if ordered is None:
        ordered = order_vertices(graph, decomposition)
    return LevelForest(*shell_sweep(ordered), graph.num_vertices)


# ----------------------------------------------------------------------
# LCPS — Algorithm 4
# ----------------------------------------------------------------------

class _RawNode:
    """Mutable node used during construction, before compression."""

    __slots__ = ("level", "vertices", "children", "parent")

    def __init__(self, level: int, parent: "_RawNode | None"):
        self.level = level
        self.vertices: list[int] = []
        self.children: list[_RawNode] = []
        self.parent = parent
        if parent is not None:
            parent.children.append(self)


def build_core_forest_lcps(
    graph: Graph, decomposition: CoreDecomposition | None = None
) -> LevelForest:
    """Construct the core forest with LCPS (Algorithm 4), O(m).

    The traversal keeps a bucket per priority level and a *path* of open
    nodes from the current tree's root down to the core being explored.
    Popping a vertex ``v`` at priority ``r``:

    * retreats the path to level ``r`` (opening an empty node at ``r`` if the
      path skipped that level — compression removes it later if it stays
      empty), because the edge that discovered ``v`` is internal to the
      r-core only;
    * descends into a fresh node at level ``c(v)`` when ``c(v) > r`` —
      ``v`` starts a deeper core nested inside the current one;
    * inserts ``v`` (each vertex lands in a node at exactly its coreness)
      and enqueues every unvisited neighbour ``w`` at ``min(c(v), c(w))``.
    """
    if decomposition is None:
        decomposition = core_decomposition(graph)
    coreness = decomposition.coreness
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices

    visited = np.zeros(n, dtype=bool)
    kmax = decomposition.kmax
    bins: list[list[int]] = [[] for _ in range(kmax + 1)]
    raw_roots: list[_RawNode] = []

    coreness_l = coreness.tolist()
    indptr_l = indptr.tolist()
    indices_l = indices.tolist()
    visited_l = visited.tolist()

    for seed in range(n):
        if visited_l[seed]:
            continue
        root = _RawNode(0, None)
        raw_roots.append(root)
        path: list[_RawNode] = [root]
        bins[0].append(seed)
        top = 0  # highest possibly-non-empty bin
        while top >= 0:
            if not bins[top]:
                top -= 1
                continue
            v = bins[top].pop()
            r = top
            if visited_l[v]:
                continue
            cv = coreness_l[v]
            # Retreat to level r (the level at which v's discovering edge is
            # internal), opening a node at r if the path skipped it.  When a
            # node is opened, the subtree just retreated from lies *inside*
            # the r-core it represents, so the new node adopts it.
            retreated = None
            while path[-1].level > r:
                retreated = path.pop()
            if path[-1].level < r:
                opened = _RawNode(r, path[-1])
                if retreated is not None:
                    retreated.parent.children.remove(retreated)
                    retreated.parent = opened
                    opened.children.append(retreated)
                path.append(opened)
            # Descend into v's own core level.
            if cv > r:
                path.append(_RawNode(cv, path[-1]))
            path[-1].vertices.append(v)
            visited_l[v] = True
            for j in range(indptr_l[v], indptr_l[v + 1]):
                w = indices_l[j]
                if not visited_l[w]:
                    p = min(coreness_l[w], cv)
                    bins[p].append(w)
                    if p > top:
                        top = p

    return _compress(raw_roots, n)


def _compress(raw_roots: list[_RawNode], num_vertices: int) -> LevelForest:
    """Drop empty nodes, number them canonically, build the forest."""
    # Collect surviving nodes with their effective parent (nearest non-empty
    # ancestor).
    survivors: list[tuple[_RawNode, _RawNode | None]] = []
    stack: list[tuple[_RawNode, _RawNode | None]] = [(r, None) for r in raw_roots]
    while stack:
        node, eff_parent = stack.pop()
        keep = bool(node.vertices)
        if keep:
            node.vertices.sort()
            survivors.append((node, eff_parent))
        next_parent = node if keep else eff_parent
        stack.extend((c, next_parent) for c in node.children)

    survivors.sort(key=lambda pair: (-pair[0].level, pair[0].vertices[0]))
    ids: dict[int, int] = {id(node): i for i, (node, _) in enumerate(survivors)}
    parent = [-1 if p is None else ids[id(p)] for _, p in survivors]
    sizes = [len(node.vertices) for node, _ in survivors]
    return LevelForest(
        [node.level for node, _ in survivors],
        parent,
        np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
        [v for node, _ in survivors for v in node.vertices],
        num_vertices,
    )
