"""Generic level forest and the connected best-level variant (Section IV).

The core forest of Section IV-A generalises to any nested hierarchy: the
connected components of the level-k subgraphs form a forest (one tree per
connected component of the graph), with one node per component holding the
component's level-k vertices.  Because a vertex's neighbours of level
``>= k`` are adjacent to it, they always land in *its* component — so the
per-vertex charges of Algorithms 2/3 aggregate per node exactly as
Algorithm 5 aggregates them for cores, for every registered family.

* :func:`shell_sweep` — the one forest builder: a vectorised union-find
  sweep over the levels from the deepest down that reads the edges, already
  grouped by level, and the shells off an Algorithm 1 ordering, so nothing
  is sorted but each shell's roots; :func:`build_level_forest` wraps it for
  any levels, :func:`repro.core.build_core_forest` for coreness and the
  :class:`~repro.engine.chain.ArtifactChain` behind every Problem 2 path;
* :class:`LevelForest` — the flat ``(k, parent, vert_ptr, vertices)``
  layout every built and every store-hydrated forest is constructed from;
* :func:`node_totals` / :func:`node_triangles` / :func:`node_values` /
  :func:`score_nodes` — the package's one Algorithm 5, split into the
  pieces the shared :class:`~repro.index.BestKIndex` caches: each node's
  own per-vertex charges plus its children's totals (one forward scan),
  the node's primary values, and the O(#nodes) score tail;
* :func:`family_node_scores` — those pieces chained for any family;
* :func:`best_node_result` — the winning node as a Problem 2 answer;
* :func:`baseline_family_node_scores` — the from-scratch per-component
  baseline (Section IV-B);
* :func:`best_connected_level_set` — the single-community variant of the
  best-level problem (Problem 2) for any family.

This module never imports a family package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from ..errors import EmptyGraphError
from ..graph.csr import Graph
from ..kernels.common import concat_ranges
from .family import BestLevelResult, HierarchyFamily, get_family
from .levels import level_ordering
from .primary import PrimaryValues

__all__ = [
    "LevelNode",
    "LevelForest",
    "LevelNodeScores",
    "shell_sweep",
    "build_level_forest",
    "node_totals",
    "node_triangles",
    "node_values",
    "score_nodes",
    "best_node_result",
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
        return f"LevelNode(id={self.node_id}, k={self.k}, |shell|={len(self.vertices)})"


#: :meth:`LevelForest.component_vertices` switches from a sort to a mask at
#: ``max(_MASK_MIN, n // _MASK_SHARE)`` vertices.  Timed on 2 CPUs with
#: scattered ids, the mask matched the sort at about n/4 for n from 20k to
#: 1M and was ahead from n/3; on 2k vertices it lost at every share.
_MASK_MIN = 4096
_MASK_SHARE = 3


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
            LevelNode(i, k, self.vertices[ptr[i]:ptr[i + 1]], p, kids)
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
            raise EmptyGraphError("no candidate node to choose from")
        candidates = np.flatnonzero(finite & (scores == np.nanmax(scores)))
        ks = self.k[candidates]
        return int(candidates[ks == ks.max()][0])

    def containing(self, v: int, k: int) -> int:
        """Node id of the connected level-k set containing ``v`` (``k <= level(v)``).

        Walks up from v's own node; if no ancestor sits at level exactly
        ``k``, the level-k set coincides with the shallowest ancestor at a
        level ``>= k`` (sets at skipped levels have identical vertices).
        """
        node_id = self.node_of_vertex(v)
        if self.k[node_id] < k:
            raise ValueError(f"vertex {v} has level {self.k[node_id]} < k={k}")
        while True:
            parent = int(self.parent[node_id])
            if self.k[node_id] == k or parent == -1 or self.k[parent] < k:
                return node_id
            node_id = parent

    def component_vertices(self, node_id: int) -> np.ndarray:
        """Full vertex set of the component represented by ``node_id``, sorted.

        A set of ``s`` vertices is sorted in O(s log s) while small; from
        :data:`_MASK_MIN` vertices and a :data:`_MASK_SHARE` share of ``n``
        it is read off an O(n) membership mask instead, which is then no
        slower than the sort.
        """
        subtree, stack = [], [node_id]
        while stack:
            i = stack.pop()
            subtree.append(i)
            stack.extend(self.children[i])
        ptr = self.vert_ptr
        members = np.concatenate([self.vertices[ptr[i]:ptr[i + 1]] for i in subtree])
        if len(members) < max(_MASK_MIN, self.num_vertices // _MASK_SHARE):
            return np.sort(members)
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[members] = True
        return np.flatnonzero(mask)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.num_nodes}, roots={len(self.roots)})"


def shell_sweep(ordering) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The level forest's flat ``(k, parent, vert_ptr, vertices)`` arrays.

    Algorithm 4 read off an Algorithm 1 ordering (any object with
    ``order``, ``level_start``, ``indptr``, ``indices`` and ``high``, such
    as a :class:`~repro.engine.levels.LevelOrdering`).  An edge is internal
    from the level of its lower-rank endpoint down, and the rows'
    higher-rank suffixes, taken in ``order`` sequence, list every edge once
    under that endpoint, so they come grouped by level with no sort; the
    shells are ``order`` sliced at ``level_start``.  The levels are walked
    from the deepest to 0.  At level k the level-k edges are unioned
    (roots hooked larger onto smaller with ``np.minimum.at`` until both
    endpoints agree); the level-k shell, grouped by root, becomes that
    level's nodes; and the previous top node of every component the level
    merged gets the new node of its root as parent.  Every level-k edge has
    its lower-rank endpoint in the shell, so a merged component always
    gains a node.  The roots each hooking round hooks are flattened by
    pointer doubling, and after a level that merged anything the
    union-find is flattened over the vertices seen so far, so every root
    lookup is one gather.  Each hooking round costs the level's edges that
    still cross, plus O(log) doubling passes over the roots it hooked; the
    flatten costs O(|V>=k|) at each level that merged anything.  Summed
    over the levels the flatten is O(n + sum_v level(v)): O(n + m) when no
    vertex's level exceeds its degree plus a constant (coreness, truss and
    ecc levels).
    """
    order, level_start = ordering.order, ordering.level_start
    indptr, indices = ordering.indptr, ordering.indices
    n = len(order)
    hi_start = (indptr[:-1] + ordering.high)[order]
    hi_len = indptr[1:][order] - hi_start
    # Edge i joins src[i], a vertex of the level it is listed under, and a
    # higher-rank dst[i]; edge_start[k] is where level k's edges begin.
    src = np.repeat(order, hi_len)
    dst = concat_ranges(indices, hi_start, hi_start + hi_len)
    edge_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(hi_len, out=edge_start[1:])
    edge_start = edge_start[level_start]

    uf = np.arange(n, dtype=np.int64)
    top = np.full(n, -1, dtype=np.int64)  # top[root] = the component's open node
    parent = np.full(n, -1, dtype=np.int64)
    # Seeded empty, so a graph without vertices concatenates to no nodes.
    node_k: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    sizes: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    chunks: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    count = 0
    for k in range(len(level_start) - 2, -1, -1):
        lo, hi = level_start[k], level_start[k + 1]
        if lo == hi:
            continue
        # Shell vertices are still singletons: only dst can be in an
        # earlier level's component, and uf is flat, so its root is uf[dst].
        ra = src[edge_start[k]:edge_start[k + 1]]
        rb = merged = uf[dst[edge_start[k]:edge_start[k + 1]]]
        hooked = []
        while True:
            cross = ra != rb
            if not cross.any():
                break
            ra, rb = ra[cross], rb[cross]
            big = np.maximum(ra, rb)
            np.minimum.at(uf, big, np.minimum(ra, rb))
            # ra and rb were roots, so each is still one or was just hooked.
            _flatten(uf, big)
            hooked.append(big)
            ra, rb = uf[ra], uf[rb]
        if hooked:
            _flatten(uf, np.concatenate(hooked))
            seen = order[lo:]
            uf[seen] = uf[uf[seen]]
        # One node per root among the shell, ordered by smallest member.
        shell = order[lo:hi]
        roots, first, inverse = np.unique(uf[shell], return_index=True, return_inverse=True)
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
        parent[orphans] = top[uf[merged]]
        count += len(roots)

    vert_ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.concatenate(sizes), out=vert_ptr[1:])
    return np.concatenate(node_k), parent[:count], vert_ptr, np.concatenate(chunks)


def _flatten(uf: np.ndarray, nodes: np.ndarray) -> None:
    """Point every entry of ``nodes`` straight at its root, in place.

    Pointer doubling: each round replaces every pointer by its
    grandparent, halving every path, so a path of length L takes about
    log2(L) rounds.  Every non-root on a path from ``nodes`` must itself be
    in ``nodes`` (true of the roots one hooking round hooked, and of all the
    roots a level hooked), so the paths halve as a whole.
    """
    while True:
        up = uf[nodes]
        upup = uf[up]
        if np.array_equal(up, upup):
            return
        uf[nodes] = upup


def build_level_forest(graph: Graph, levels: np.ndarray, *, ordering=None) -> LevelForest:
    """Construct the level forest of ``levels`` with :func:`shell_sweep`.

    ``ordering`` is the Algorithm 1 ordering of ``levels`` when the caller
    already holds one; otherwise :func:`~repro.engine.levels.level_ordering`
    builds it.  Besides its edge work the sweep flattens O(n + sum_v
    level(v)) entries: O(n + m) for coreness, truss and ecc levels, at most
    O(n num_levels) for the weighted family's, and up to O(n L) for
    arbitrary levels with L distinct non-empty values.
    """
    if ordering is None:
        ordering = level_ordering(graph, levels)
    return LevelForest(*shell_sweep(ordering), graph.num_vertices)


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
        """Node id of the best component; ties towards largest k, then lowest id.

        Node ids are canonical (descending k, then smallest shell vertex),
        so among equal-score components of one k the one holding the
        smallest vertex wins, whichever builder or store state produced
        the forest.
        """
        return self.forest.best_node(self.scores)

    def ranked_nodes(self) -> np.ndarray:
        """Node ids sorted by descending score (nan last)."""
        keys = np.where(np.isnan(self.scores), -np.inf, self.scores)
        return np.argsort(-keys, kind="stable")

    def __repr__(self) -> str:
        name = getattr(self.metric, "name", str(self.metric))
        return f"LevelNodeScores(metric={name!r}, nodes={len(self.scores)})"


def node_totals(
    forest: LevelForest, twice_inside: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregated ``(2*in, out, num)`` totals of every node's component.

    Algorithm 5's base pass: each node sums the per-vertex charges of its
    own vertices (the same charges Algorithms 2/3 group by level), then one
    forward scan adds children into parents.
    """
    twice_in = forest.node_sums(twice_inside)
    out = forest.node_sums(boundary)
    num = np.diff(forest.vert_ptr)
    forest.aggregate_children(twice_in, out, num)
    return twice_in, out, num


def node_triangles(
    forest: LevelForest, charges: np.ndarray, triplets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated triangle/triplet totals of every node's component.

    Both are node sums of the per-vertex charges Algorithm 3 sums per
    shell (:func:`~repro.engine.triangles.triangles_by_min_rank_vertex`
    and :func:`~repro.engine.triangles.triplet_charges`), then aggregated
    children-into-parents.
    """
    tri = forest.node_sums(np.asarray(charges, dtype=np.int64))
    trip = forest.node_sums(np.asarray(triplets, dtype=np.int64))
    forest.aggregate_children(tri, trip)
    return tri, trip


def node_values(
    family: HierarchyFamily,
    twice_in: np.ndarray,
    out: np.ndarray,
    num: np.ndarray,
    tri: np.ndarray | None = None,
    trip: np.ndarray | None = None,
) -> tuple:
    """Every node's primary-values record, from its aggregated totals.

    Metric-independent, so the shared :class:`~repro.index.BestKIndex`
    builds it once (with or without triangle counts) and every metric's
    scores share the tuple.  A family that overrides
    :meth:`~repro.engine.HierarchyFamily.make_values` gets one call per
    node; the default unweighted records are mapped straight over the
    integer columns, about three times faster on large forests.
    """
    if type(family).make_values is not HierarchyFamily.make_values:
        return tuple(map(
            family.make_values, num, twice_in, out,
            repeat(None) if tri is None else tri,
            repeat(None) if trip is None else trip,
        ))
    return tuple(map(
        PrimaryValues,
        num.tolist(),
        (twice_in // 2).tolist(),
        out.tolist(),
        repeat(None) if tri is None else tri.tolist(),
        repeat(None) if trip is None else trip.tolist(),
    ))


def score_nodes(metric, totals, forest: LevelForest, values: tuple) -> LevelNodeScores:
    """The O(#nodes) scoring tail of Algorithm 5 over prebuilt node values."""
    scores = np.fromiter(
        (metric.score(pv, totals) for pv in values), dtype=np.float64, count=len(values)
    )
    return LevelNodeScores(metric, totals, forest, scores, values)


def best_node_result(
    scored: LevelNodeScores, family: str, thresholds: np.ndarray | None = None
) -> BestLevelResult:
    """The Problem 2 answer held by a node-scores record.

    The winner is :meth:`LevelNodeScores.best_node`; its full component is
    the answer's ``vertices`` and its id the answer's ``node_id``.
    """
    forest = scored.forest
    node_id = scored.best_node()
    k = int(forest.k[node_id])
    return BestLevelResult(
        scored.metric.name,
        k,
        float(scored.scores[node_id]),
        scored,
        forest.component_vertices(node_id),
        None if thresholds is None else float(thresholds[k]),
        family,
        node_id,
    )


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
    Every artifact comes from one :class:`~repro.engine.chain.ArtifactChain`,
    seeded with whichever of ``decomposition``/``ordering``/``forest`` the
    caller passes.
    """
    from .chain import ArtifactChain

    fam = get_family(family)
    known = {"decompose": decomposition, "ordering": ordering, "forest": forest}
    chain = ArtifactChain(graph, fam, params, backend=backend, known=known)
    return chain.node_scores(fam.resolve_metric(metric))


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
    """From-scratch per-component baseline (Section IV-B), generically.

    The forest makes *retrieving* each component's vertex set cheap, but
    the primary values are recomputed per component by scanning its
    induced subgraph — ``O(sum_nodes (q_i + |V(S_i)|))`` overall.
    """
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
    component as ``vertices``, the node-scores record as ``scores`` and
    the winning forest node as ``node_id``.
    """
    from .chain import ArtifactChain

    fam = get_family(family)
    metric = fam.resolve_metric(fam.default_metric if metric is None else metric)
    known = {"decompose": decomposition, "forest": forest}
    chain = ArtifactChain(graph, fam, params, backend=backend, known=known)
    if use_baseline:
        scored = baseline_family_node_scores(
            graph, fam, metric, decomposition=chain.decompose(), forest=forest,
            backend=backend, **params,
        )
    else:
        scored = chain.node_scores(metric)
    return best_node_result(scored, fam.name, chain.thresholds())
