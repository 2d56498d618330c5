"""The forest hierarchy of connected k-trusses, and best single k-truss.

Paper Section VI-B sketches best-k for truss *sets* (realised by the
engine's ``truss`` family, :func:`repro.engine.best_level_set`) and notes that "the solution for computing the
best single k-truss can be derived similarly, while designing an optimal
solution is still challenging".  This module provides the derived — correct
but not asymptotically optimal — solution:

* a **truss forest** mirroring the core forest: one node per connected
  k-truss (a connected component of the edges with truss number >= k,
  together with their endpoints), parent = the enclosing truss of the next
  lower order;
* :func:`best_single_ktruss`: score every connected k-truss (from-scratch
  per node, the Section IV-B baseline strategy) and pick the best.

Construction is a union-find sweep over edges in descending truss order —
the same bottom-up pattern the core-forest cross-check uses — in
O(m α(m) + sort).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyGraphError
from ..graph.csr import Graph
from ..engine.metrics import Metric, get_metric
from ..engine.primary import PrimaryColumns, graph_totals, primary_values
from .decomposition import TrussDecomposition, truss_decomposition

__all__ = ["TrussNode", "TrussForest", "build_truss_forest", "best_single_ktruss",
           "BestSingleTrussResult"]


@dataclass(frozen=True)
class TrussNode:
    """One connected k-truss in the hierarchy.

    ``edge_ids`` indexes :attr:`TrussDecomposition.edges`; the node stores
    only the edges of truss number exactly ``k`` belonging to this truss
    (deeper edges live in the descendants, as in the core forest).
    """

    node_id: int
    k: int
    edge_ids: np.ndarray
    parent: int
    children: tuple[int, ...]

    def __repr__(self) -> str:
        return f"TrussNode(id={self.node_id}, k={self.k}, |shell edges|={len(self.edge_ids)})"


class TrussForest:
    """All connected k-trusses, nodes sorted by descending k."""

    def __init__(self, nodes: list[TrussNode], decomposition: TrussDecomposition):
        self.nodes: tuple[TrussNode, ...] = tuple(nodes)
        self.decomposition = decomposition

    @property
    def num_nodes(self) -> int:
        """Number of connected k-trusses across all orders."""
        return len(self.nodes)

    @property
    def roots(self) -> tuple[int, ...]:
        """Nodes without an enclosing truss."""
        return tuple(n.node_id for n in self.nodes if n.parent == -1)

    def truss_edge_ids(self, node_id: int) -> np.ndarray:
        """All edge ids of the k-truss represented by ``node_id``."""
        out: list[np.ndarray] = []
        stack = [node_id]
        while stack:
            node = self.nodes[stack.pop()]
            out.append(node.edge_ids)
            stack.extend(node.children)
        return np.sort(np.concatenate(out)) if out else np.empty(0, dtype=np.int64)

    def truss_vertices(self, node_id: int) -> np.ndarray:
        """Vertex set of the k-truss represented by ``node_id``."""
        edges = self.decomposition.edges[self.truss_edge_ids(node_id)]
        return np.unique(edges) if len(edges) else np.empty(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"TrussForest(nodes={self.num_nodes}, roots={len(self.roots)})"


def build_truss_forest(
    graph: Graph, decomposition: TrussDecomposition | None = None
) -> TrussForest:
    """Union-find sweep over edges in descending truss order.

    Activating the truss-``k`` edges merges vertex components; every
    component that gained truss-``k`` edges becomes a node whose children
    are the previously-topmost nodes it absorbed.  Truss numbers start at
    2, so the hierarchy covers ``k = 2 .. tmax`` (the k <= 2 trusses all
    share the k=2 node's composition).
    """
    if decomposition is None:
        decomposition = truss_decomposition(graph)
    edges = decomposition.edges
    truss = decomposition.truss
    n = graph.num_vertices

    parent_uf = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent_uf[root] != root:
            root = parent_uf[root]
        while parent_uf[x] != root:
            parent_uf[x], x = root, parent_uf[x]
        return root

    pending: dict[int, list[int]] = {}
    node_levels: list[int] = []
    node_edges: list[np.ndarray] = []
    node_children: list[list[int]] = []

    order = np.argsort(-truss, kind="stable")
    i = 0
    m = len(edges)
    while i < m:
        k = int(truss[order[i]])
        level_ids = []
        while i < m and truss[order[i]] == k:
            level_ids.append(int(order[i]))
            i += 1
        # Union the endpoints of this level's edges.
        for eid in level_ids:
            u, v = int(edges[eid][0]), int(edges[eid][1])
            ru, rv = find(u), find(v)
            if ru != rv:
                parent_uf[rv] = ru
                merged = pending.pop(ru, []) + pending.pop(rv, [])
                if merged:
                    pending[ru] = merged
        # Group this level's edges by component and emit nodes.
        by_root: dict[int, list[int]] = {}
        for eid in level_ids:
            by_root.setdefault(find(int(edges[eid][0])), []).append(eid)
        for root, members in by_root.items():
            nid = len(node_levels)
            node_levels.append(k)
            node_edges.append(np.asarray(sorted(members), dtype=np.int64))
            node_children.append(pending.get(root, []))
            pending[root] = [nid]

    parents = [-1] * len(node_levels)
    for nid, kids in enumerate(node_children):
        for child in kids:
            parents[child] = nid
    nodes = [
        TrussNode(nid, node_levels[nid], node_edges[nid], parents[nid],
                  tuple(node_children[nid]))
        for nid in range(len(node_levels))
    ]
    return TrussForest(nodes, decomposition)


@dataclass(frozen=True)
class BestSingleTrussResult:
    """The best single connected k-truss under one metric."""

    metric_name: str
    k: int
    score: float
    node_id: int
    vertices: np.ndarray

    def __repr__(self) -> str:
        return (
            f"BestSingleTrussResult(metric={self.metric_name!r}, k={self.k}, "
            f"score={self.score:.6g}, |V|={len(self.vertices)})"
        )


def best_single_ktruss(
    graph: Graph,
    metric: str | Metric,
    *,
    forest: TrussForest | None = None,
) -> BestSingleTrussResult:
    """Score every connected k-truss and return the best.

    Scores use the truss's *vertex set* (induced-subgraph primary values),
    consistent with the engine's truss-set scoring (the ``truss`` family).
    Per-node scoring is from scratch — the paper explicitly leaves an
    optimal single-truss algorithm open — so the cost matches the Section
    IV-B baseline pattern.
    """
    metric = get_metric(metric)
    if forest is None:
        forest = build_truss_forest(graph)
    if forest.num_nodes == 0:
        raise EmptyGraphError("graph has no edges, hence no k-truss")
    columns = PrimaryColumns.of(
        primary_values(
            graph, forest.truss_vertices(node.node_id),
            count_triangles=metric.requires_triangles,
        )
        for node in forest.nodes
    )
    scores = metric.score_columns(columns, graph_totals(graph))
    # Best score, then the largest k, then the lowest node id.
    finite = ~np.isnan(scores)
    if not finite.any():
        raise EmptyGraphError("no k-truss has a defined score")
    candidates = np.flatnonzero(finite & (scores == np.nanmax(scores)))
    ks = np.array([forest.nodes[i].k for i in candidates.tolist()])
    best_id = int(candidates[ks == ks.max()][0])
    return BestSingleTrussResult(
        metric.name, forest.nodes[best_id].k, float(scores[best_id]), best_id,
        forest.truss_vertices(best_id),
    )
