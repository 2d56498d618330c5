"""Generic level forest and the connected best-level variant (Section IV).

The core forest of Section IV-A generalises to any nested hierarchy: the
connected components of the level-k subgraphs form a forest (one tree per
connected component of the graph), with one node per component holding the
component's level-k vertices.  Because a vertex's neighbours of level
``>= k`` are adjacent to it, they always land in *its* component — so the
per-vertex charges of Algorithms 2/3 aggregate per node exactly as
Algorithm 5 aggregates them for cores, for every registered family.

* :func:`shell_sweep` — the one forest builder: a vectorised union-find
  sweep over the levels from the deepest down, O(m) numpy work per graph
  plus a sort; :func:`build_level_forest` wraps it for any levels and
  :func:`repro.core.build_core_forest` for coreness;
* :class:`LevelForest` — the flat ``(k, parent, vert_ptr, vertices)``
  layout every built and every store-hydrated forest is constructed from;
* :func:`family_node_scores` — Algorithm 5 generically: children totals
  plus the node's own per-vertex deltas, one forward scan;
* :func:`baseline_family_node_scores` — the from-scratch per-component
  baseline (Section IV-B);
* :func:`best_connected_level_set` — the single-community variant of the
  best-level problem (Problem 2) for any family.

This module never imports a family package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..graph.csr import Graph
from .family import BestLevelResult, HierarchyFamily, get_family
from .triangles import triangles_by_min_rank_vertex, triplet_group_deltas

__all__ = [
    "LevelNode",
    "LevelForest",
    "LevelNodeScores",
    "shell_sweep",
    "build_level_forest",
    "family_node_scores",
    "baseline_family_node_scores",
    "best_connected_level_set",
]


@dataclass(frozen=True)
class LevelNode:
    """One connected level-k component in the forest.

    ``vertices`` holds only the component's level-k members; the full
    component is those plus every descendant's vertices
    (:meth:`LevelForest.component_vertices`).
    """

    node_id: int
    #: The level k of the component this node represents.
    k: int
    #: Vertices of the component with level exactly k (sorted ascending).
    vertices: np.ndarray
    #: Parent node id, or -1 for a root.
    parent: int
    #: Child node ids (components nested immediately inside this one).
    children: tuple[int, ...]

    def __repr__(self) -> str:
        name = type(self).__name__
        return f"{name}(id={self.node_id}, k={self.k}, |shell|={len(self.vertices)})"


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64).view()
    arr.setflags(write=False)
    return arr


class LevelForest:
    """The forest of all connected level sets in one flat, canonical layout.

    Node ``i`` has level ``k[i]``, parent ``parent[i]`` (-1 for a root) and
    level-``k[i]`` vertices ``vertices[vert_ptr[i]:vert_ptr[i + 1]]``,
    sorted ascending.  Numbering is canonical: nodes are ordered by
    descending k, then by ascending smallest shell vertex, and children
    are listed in ascending id order (derived from ``parent``).  So every
    builder, and a store-hydrated copy, yields the same arrays, and every
    child has a smaller id than its parent: one forward scan aggregates
    child totals into parents (the Algorithm 5 invariant).
    """

    #: Node record type exposed by :attr:`nodes`.
    node_type = LevelNode

    def __init__(self, k, parent, vert_ptr, vertices, num_vertices: int):
        self.k = _frozen(k)
        self.parent = _frozen(parent)
        self.vert_ptr = _frozen(vert_ptr)
        self.vertices = _frozen(vertices)
        self.num_vertices = num_vertices

    @property
    def num_nodes(self) -> int:
        """Number of connected level sets in the hierarchy."""
        return len(self.k)

    @property
    def roots(self) -> tuple[int, ...]:
        """Node ids of the tree roots (one per connected component)."""
        return tuple(np.flatnonzero(self.parent == -1).tolist())

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """``children[i]``: ids of node i's children, ascending."""
        kids: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for child, p in enumerate(self.parent.tolist()):
            if p >= 0:
                kids[p].append(child)
        return tuple(map(tuple, kids))

    @cached_property
    def nodes(self) -> tuple[LevelNode, ...]:
        """Per-node records, built on first use from the flat layout."""
        ptr = self.vert_ptr.tolist()
        return tuple(
            self.node_type(i, k, self.vertices[ptr[i]:ptr[i + 1]], p, kids)
            for i, (k, p, kids) in enumerate(
                zip(self.k.tolist(), self.parent.tolist(), self.children)
            )
        )

    @cached_property
    def _vertex_node(self) -> np.ndarray:
        vertex_node = np.full(self.num_vertices, -1, dtype=np.int64)
        vertex_node[self.vertices] = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.vert_ptr)
        )
        return vertex_node

    def node_of_vertex(self, v: int) -> int:
        """Id of the node holding ``v`` (every vertex is in exactly one)."""
        return int(self._vertex_node[v])

    def node_sums(self, per_vertex: np.ndarray) -> np.ndarray:
        """``out[i]`` = sum of ``per_vertex`` over node i's own vertices."""
        per_vertex = np.asarray(per_vertex)
        if self.num_nodes == 0:
            return np.zeros(0, dtype=per_vertex.dtype)
        return np.add.reduceat(per_vertex[self.vertices], self.vert_ptr[:-1])

    def node_vertex_groups(self) -> list[np.ndarray]:
        """Each node's own vertices, in node id order."""
        return np.split(self.vertices, self.vert_ptr[1:-1])

    def aggregate_children(self, *arrays: np.ndarray) -> None:
        """Add each node's children totals into the node, in place.

        Children precede parents, so one ascending pass finishes every
        child before it is added to its parent.
        """
        for child, p in enumerate(self.parent.tolist()):
            if p >= 0:
                for arr in arrays:
                    arr[p] += arr[child]

    def best_node(self, scores: np.ndarray) -> int:
        """Id of the best-scoring node; ties towards largest k, then lowest id."""
        finite = ~np.isnan(scores)
        if not finite.any():
            raise ValueError("no candidate node to choose from")
        candidates = np.flatnonzero(finite & (scores == np.nanmax(scores)))
        ks = self.k[candidates]
        return int(candidates[ks == ks.max()][0])

    def component_vertices(self, node_id: int) -> np.ndarray:
        """Full vertex set of the component represented by ``node_id``, sorted."""
        subtree, stack = [], [node_id]
        while stack:
            i = stack.pop()
            subtree.append(i)
            stack.extend(self.children[i])
        ptr = self.vert_ptr
        return np.sort(np.concatenate([self.vertices[ptr[i]:ptr[i + 1]] for i in subtree]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.num_nodes}, roots={len(self.roots)})"


def _find(uf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Union-find roots of ``x``, halving each walked path (pointer jumping)."""
    r = uf[x]
    while True:
        grand = uf[r]
        if np.array_equal(grand, r):
            break
        uf[r] = uf[grand]
        r = grand
    uf[x] = r
    return r


def shell_sweep(
    graph: Graph, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The level forest's flat ``(k, parent, vert_ptr, vertices)`` arrays.

    Each edge is internal from level ``min(level[u], level[v])`` down, so
    the edges are sorted once by that level and the levels are walked from
    the deepest to 0.  At level k the level-k edges are unioned (roots
    hooked larger onto smaller with ``np.minimum.at`` until both endpoints
    agree); the level-k shell, grouped by root, becomes that level's nodes;
    and the previous top node of every component the level merged gets the
    new node of its root as parent.  Every level-k edge has a level-k
    endpoint, so a merged component always gains a node.  Per level the
    work is proportional to its edges, shell and merged components.
    """
    levels = np.asarray(levels, dtype=np.int64)
    n = graph.num_vertices
    if len(levels) != n:
        raise ValueError("levels must have one entry per vertex")
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.zeros(1, dtype=np.int64), empty
    if levels.min() < 0:
        raise ValueError("levels must be non-negative")
    max_level = int(levels.max())

    indptr, indices = graph.indptr, graph.indices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    forward = src < indices
    src, dst = src[forward], indices[forward].astype(np.int64, copy=False)
    edge_level = np.minimum(levels[src], levels[dst])
    by_level = np.argsort(edge_level)
    src, dst = src[by_level], dst[by_level]
    edge_start = np.zeros(max_level + 2, dtype=np.int64)
    np.cumsum(np.bincount(edge_level, minlength=max_level + 1), out=edge_start[1:])
    shells = np.argsort(levels, kind="stable")
    shell_start = np.zeros(max_level + 2, dtype=np.int64)
    np.cumsum(np.bincount(levels, minlength=max_level + 1), out=shell_start[1:])

    uf = np.arange(n, dtype=np.int64)
    top = np.full(n, -1, dtype=np.int64)  # top[root] = the component's open node
    parent = np.full(n, -1, dtype=np.int64)
    node_k: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    chunks: list[np.ndarray] = []
    count = 0
    for k in range(max_level, -1, -1):
        shell = shells[shell_start[k]:shell_start[k + 1]]
        if len(shell) == 0:
            continue
        a = src[edge_start[k]:edge_start[k + 1]]
        b = dst[edge_start[k]:edge_start[k + 1]]
        ra, rb = _find(uf, a), _find(uf, b)
        merged = np.concatenate((ra, rb))
        while True:
            cross = ra != rb
            if not cross.any():
                break
            a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
            np.minimum.at(uf, np.maximum(ra, rb), np.minimum(ra, rb))
            ra, rb = _find(uf, a), _find(uf, b)
        # One node per root among the shell, ordered by smallest member.
        roots, first, inverse = np.unique(
            _find(uf, shell), return_index=True, return_inverse=True
        )
        by_first = np.argsort(first)
        group = np.empty_like(by_first)
        group[by_first] = np.arange(len(by_first))
        group = group[inverse]
        chunks.append(shell[np.argsort(group, kind="stable")])
        sizes.append(np.bincount(group, minlength=len(roots)))
        node_k.append(np.full(len(roots), k, dtype=np.int64))
        # Reattach the open nodes of merged components under the new nodes.
        merged = merged[top[merged] >= 0]
        orphans = top[merged]
        top[merged] = -1
        top[roots[by_first]] = np.arange(count, count + len(roots))
        parent[orphans] = top[_find(uf, merged)]
        count += len(roots)

    vert_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=vert_ptr[1:])
    return np.concatenate(node_k), parent[:count], vert_ptr, np.concatenate(chunks)


def build_level_forest(graph: Graph, levels: np.ndarray) -> LevelForest:
    """Construct the level forest of ``levels`` with :func:`shell_sweep`."""
    return LevelForest(*shell_sweep(graph, levels), graph.num_vertices)


@dataclass(frozen=True)
class LevelNodeScores:
    """Scores and primary values of every connected level set (forest node)."""

    metric: object
    totals: object
    forest: LevelForest
    #: ``scores[i]`` = metric score of forest node i's component.
    scores: np.ndarray
    #: ``values[i]`` = primary values of forest node i's component.
    values: tuple

    def best_node(self) -> int:
        """Node id of the best component; ties towards largest k, then lowest id."""
        return self.forest.best_node(self.scores)

    def __repr__(self) -> str:
        name = getattr(self.metric, "name", str(self.metric))
        return f"LevelNodeScores(metric={name!r}, nodes={len(self.scores)})"


def family_node_scores(
    graph: Graph,
    family: str | HierarchyFamily,
    metric,
    *,
    decomposition=None,
    ordering=None,
    forest: LevelForest | None = None,
    backend=None,
    **params,
) -> LevelNodeScores:
    """Score every connected level set with Algorithm 5, generically.

    The node-grouped twin of :func:`~repro.engine.family.family_set_scores`:
    the same per-vertex charges, summed per forest node instead of per
    level, then aggregated children-into-parents in one forward scan.
    """
    fam = get_family(family)
    metric = fam.resolve_metric(metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    levels = fam.levels(decomposition, **params)
    if ordering is None:
        ordering = fam.ordering(graph, levels)
    if forest is None:
        forest = build_level_forest(graph, levels)
    totals = fam.totals(graph, decomposition, **params)

    twice_inside, boundary = fam.charges(graph, decomposition, levels, ordering, **params)
    count = forest.num_nodes
    twice_in = forest.node_sums(twice_inside)
    out = forest.node_sums(boundary)
    num = np.diff(forest.vert_ptr)
    forest.aggregate_children(twice_in, out, num)

    tri = trip = None
    if fam.metric_requires_triangles(metric):
        charges = triangles_by_min_rank_vertex(ordering, backend=backend)
        tri = forest.node_sums(charges)
        trip = triplet_group_deltas(
            ordering, forest.node_vertex_groups(), backend=backend
        )
        forest.aggregate_children(tri, trip)

    values = []
    scores = np.full(count, np.nan)
    for i in range(count):
        pv = fam.make_values(
            num[i], twice_in[i], out[i],
            None if tri is None else tri[i],
            None if trip is None else trip[i],
        )
        values.append(pv)
        scores[i] = metric.score(pv, totals)
    return LevelNodeScores(metric, totals, forest, scores, tuple(values))


def baseline_family_node_scores(
    graph: Graph,
    family: str | HierarchyFamily,
    metric,
    *,
    decomposition=None,
    forest: LevelForest | None = None,
    backend=None,
    **params,
) -> LevelNodeScores:
    """From-scratch per-component baseline (Section IV-B), generically."""
    fam = get_family(family)
    metric = fam.resolve_metric(metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    if forest is None:
        forest = build_level_forest(graph, fam.levels(decomposition, **params))
    totals = fam.totals(graph, decomposition, **params)
    count_triangles = fam.metric_requires_triangles(metric)

    values = []
    scores = np.full(forest.num_nodes, np.nan)
    for i in range(forest.num_nodes):
        members = forest.component_vertices(i)
        pv = fam.subset_values(
            graph, decomposition, members, count_triangles=count_triangles, **params
        )
        values.append(pv)
        scores[i] = metric.score(pv, totals)
    return LevelNodeScores(metric, totals, forest, scores, tuple(values))


def best_connected_level_set(
    graph: Graph,
    family: str | HierarchyFamily,
    metric=None,
    *,
    decomposition=None,
    forest: LevelForest | None = None,
    backend=None,
    use_baseline: bool = False,
    **params,
) -> BestLevelResult:
    """Best single *connected* level set for any family (Problem 2).

    Ties break towards the largest level, then the lowest node id.  The
    returned :class:`~repro.engine.family.BestLevelResult` carries the full
    component as ``vertices`` and the node-scores record as ``scores``.
    """
    fam = get_family(family)
    metric = fam.resolve_metric(fam.default_metric if metric is None else metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    levels = fam.levels(decomposition, **params)
    if forest is None:
        forest = build_level_forest(graph, levels)
    if use_baseline:
        scored = baseline_family_node_scores(
            graph, fam, metric,
            decomposition=decomposition, forest=forest, backend=backend, **params,
        )
    else:
        scored = family_node_scores(
            graph, fam, metric,
            decomposition=decomposition, forest=forest, backend=backend, **params,
        )
    node_id = scored.best_node()
    k = int(forest.k[node_id])
    thresholds = fam.thresholds(decomposition, int(levels.max()) if len(levels) else 0, **params)
    threshold = None if thresholds is None else float(thresholds[k])
    return BestLevelResult(
        metric.name,
        k,
        float(scored.scores[node_id]),
        scored,
        forest.component_vertices(node_id),
        threshold,
        fam.name,
    )
