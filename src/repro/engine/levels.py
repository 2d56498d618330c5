"""Generalised best-k machinery for arbitrary vertex-level hierarchies.

Paper Section VI-B observes that the optimal algorithms extend to any
decomposition with the containment property: if ``level(v)`` is any integer
labelling such that the "k-th subgraph" is induced by
``{v : level(v) >= k}``, then the vertex ordering of Algorithm 1 and the
incremental accumulation of Algorithms 2/3 go through verbatim with
``level`` in place of coreness.

This module is the single implementation of that generalisation, shared by
every registered :class:`~repro.engine.family.HierarchyFamily` (k-core,
k-truss, weighted s-core, k-ECC, and anything registered later):

* :func:`level_ordering` — Algorithm 1 for an arbitrary level array;
* :func:`unweighted_level_charges` / :func:`accumulate_level_totals` /
  :func:`triangle_level_increments` — the per-vertex charges and suffix-sum
  accumulation of Algorithms 2/3, backend-aware via :mod:`repro.kernels`;
* :func:`scores_from_level_totals` — the one O(L) scoring tail every
  family routes through (there is deliberately no other per-level scan
  loop anywhere in the package);
* :func:`level_set_scores` — the raw-levels entry point, itself expressed
  through the generic family machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import EmptyGraphError
from ..graph.csr import Graph, sorted_arc_keys
from ..kernels.common import concat_ranges
from .metrics import Metric
from .primary import GraphTotals, PrimaryValues
from .triangles import triangles_by_min_rank_vertex, triplet_charges

__all__ = [
    "LevelOrdering",
    "LevelSetScores",
    "level_ordering",
    "level_set_scores",
    "unweighted_level_charges",
    "accumulate_level_totals",
    "cumulate_from_top",
    "triangle_level_increments",
    "scores_from_level_totals",
]


@dataclass(frozen=True)
class LevelOrdering:
    """Algorithm 1's rank-ordered adjacency with position tags for a level array.

    Every vertex's adjacency is sorted by ascending neighbour rank, where
    rank is position in the ``(level, id)`` total order (Definition 5 with
    ``level`` in place of coreness), and three tags are kept per vertex
    (Table II): ``same`` (first neighbour with ``level(u) >= level(v)``),
    ``plus`` (first with ``level(u) > level(v)``) and ``high`` (first with
    ``rank(u) > rank(v)``).  So ``|N(v, <)| = same[v]``, ``|N(v, =)| =
    plus[v] - same[v]``, ``|N(v, >)| = deg(v) - plus[v]`` and ``|N(v, >r)|
    = deg(v) - high[v]``, each in O(1), and each neighbour class is a
    contiguous slice of ``indices``.  The one ordering type of every
    family, the k-core's included; all arrays are read-only.
    """

    graph: Graph
    levels: np.ndarray
    #: rank under the (level, id) total order.
    rank: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    same: np.ndarray
    plus: np.ndarray
    high: np.ndarray
    #: vertices sorted by ascending level (ties by id).
    order: np.ndarray
    #: ``order[level_start[k]:]`` = vertices with level >= k.
    level_start: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.rank, self.indptr, self.indices, self.same, self.plus, self.high):
            arr.setflags(write=False)

    @property
    def max_level(self) -> int:
        """Largest level value present."""
        return len(self.level_start) - 2

    def __repr__(self) -> str:
        g = self.graph
        return f"LevelOrdering(n={g.num_vertices}, m={g.num_edges}, max_level={self.max_level})"


def level_ordering(graph: Graph, levels: np.ndarray) -> LevelOrdering:
    """Algorithm 1 generalised to an arbitrary non-negative level array."""
    levels = np.asarray(levels, dtype=np.int64)
    n = graph.num_vertices
    if len(levels) != n:
        raise ValueError("levels must have one entry per vertex")
    if len(levels) and levels.min() < 0:
        raise ValueError("levels must be non-negative")

    order = np.argsort(levels, kind="stable").astype(np.int64)
    max_level = int(levels.max()) if n else 0
    counts = np.bincount(levels, minlength=max_level + 1) if n else np.zeros(1, np.int64)
    level_start = np.zeros(max_level + 2, dtype=np.int64)
    np.cumsum(counts, out=level_start[1:])
    return _rank_order_arcs(graph, levels, order, level_start)


#: A patched Algorithm 1 (:func:`_rank_order_arcs` with a ``base``) re-sorts
#: only the affected rows; once those rows hold more than this share of
#: all arcs, the full keyed sort is cheaper and runs instead.
PATCH_MAX_ARC_SHARE = 0.25


def _rank_order_arcs(
    graph: Graph, levels: np.ndarray, order: np.ndarray, level_start: np.ndarray,
    *, base: LevelOrdering | None = None, touched: np.ndarray | None = None,
) -> LevelOrdering:
    """Algorithm 1 proper: rank-ordered adjacency plus the position tags.

    The one builder behind :func:`level_ordering` and
    :func:`repro.core.ordering.order_vertices`, which pass their own
    ``(level, id)`` vertex ``order`` and ``level_start``; both are kept
    as given, so rank is position in ``order`` and the arcs and tags come
    from :func:`_sort_rows`.  The paper realises the permutation with two
    counting-sort passes; one in-place sort of the int64 arc keys
    ``v * n + rank(u)`` gives the same one.

    Passing ``base`` (the ordering of an earlier snapshot of the same
    vertex ids) and ``touched`` (the vertices whose adjacency changed
    since: the endpoints of the delta) patches instead.  Rank is a total
    order on ``(level, id)``, so the relative order of two neighbours of
    ``v`` depends only on their levels and ids, and ``v``'s tags only on
    its own level and its neighbours' levels.  A row can therefore differ
    from its old self only if it is :func:`_affected_rows`: touched, or
    ``v`` or a neighbour changed level.  Only those rows are sorted and
    tagged; every other row's arcs and tags are copied from ``base`` with
    one boolean compress and scatter.  When the affected rows hold more
    than :data:`PATCH_MAX_ARC_SHARE` of all arcs the full sort runs.  The
    output is the same either way; only ``rank`` is always rebuilt, in
    O(n).
    """
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    ordering = partial(
        LevelOrdering, graph=graph, levels=levels, rank=rank,
        indptr=graph.indptr, order=order, level_start=level_start,
    )
    rows = None if base is None else _affected_rows(graph, base.levels, levels, touched)
    if rows is None or int(graph.degrees()[rows].sum()) > PATCH_MAX_ARC_SHARE * len(graph.indices):
        indices, same, plus, high = _sort_rows(graph, levels, order, rank, level_start, None)
        return ordering(indices=indices, same=same, plus=plus, high=high)

    sub_indices, sub_same, sub_plus, sub_high = _sort_rows(
        graph, levels, order, rank, level_start, rows
    )
    n_old = len(base.same)
    new_slots = _row_slots(graph.indptr, rows)
    old_slots = _row_slots(base.indptr, rows[rows < n_old])
    keep_new = np.ones(len(graph.indices), dtype=bool)
    keep_new[new_slots] = False
    keep_old = np.ones(len(base.indices), dtype=bool)
    keep_old[old_slots] = False
    indices = np.empty(len(graph.indices), dtype=np.int64)
    indices[keep_new] = base.indices[keep_old]
    indices[new_slots] = sub_indices

    def patched(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=np.int64)
        out[:n_old] = old
        out[rows] = new
        return out

    return ordering(indices=indices, same=patched(base.same, sub_same),
                    plus=patched(base.plus, sub_plus), high=patched(base.high, sub_high))


def _affected_rows(
    graph: Graph, old_levels: np.ndarray, levels: np.ndarray, touched: np.ndarray
) -> np.ndarray:
    """Sorted ids of the rows whose Algorithm 1 output can have changed.

    The ``touched`` rows (edited by the delta), the vertices whose level
    differs from ``old_levels`` and their neighbours in ``graph``.  A
    vertex beyond the old vertex count is touched or isolated; an
    isolated row is empty with zero tags, which the patch fills in
    without sorting it.  Costs ``O(n)`` for the level comparison and the
    row mask, plus the changed vertices' degrees.
    """
    n_old = len(old_levels)
    changed = np.flatnonzero(levels[:n_old] != old_levels)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[touched] = True
    mask[changed] = True
    mask[concat_ranges(graph.indices, graph.indptr[changed], graph.indptr[changed + 1])] = True
    return np.flatnonzero(mask)


def _row_slots(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the arcs of ``rows`` in a CSR, in row order: O(their arcs)."""
    starts, lengths = indptr[rows], indptr[rows + 1] - indptr[rows]
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return shift + np.arange(len(shift), dtype=np.int64)


def _sort_rows(
    graph: Graph, levels: np.ndarray, order: np.ndarray, rank: np.ndarray,
    level_start: np.ndarray, rows: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank-ordered arcs and ``(same, plus, high)`` tags of some rows.

    ``rows`` is a sorted array of vertex ids, or ``None`` for every row
    (the cold build).  One sort of the arc keys ``row * n + rank[nbr]``
    (``row`` numbered within ``rows``) orders every slice by rank; level
    is monotone in rank, so each tag is the insertion point of the row's
    threshold key ``level_start[level[v]]`` (``same``),
    ``level_start[level[v] + 1]`` (``plus``) or ``rank[v]`` (``high``).
    Returns the rows' neighbour ids concatenated in row order, then the
    three tag arrays, one entry per row.
    """
    n = graph.num_vertices
    if rows is None:
        deg, nbrs, row_start = graph.degrees(), graph.indices, graph.indptr[:-1]
        row_levels, row_rank = levels, rank
    else:
        starts, deg = graph.indptr[rows], graph.degrees()[rows]
        nbrs = concat_ranges(graph.indices, starts, starts + deg)
        row_start = np.zeros(len(rows), dtype=np.int64)
        np.cumsum(deg[:-1], out=row_start[1:])
        row_levels, row_rank = levels[rows], rank[rows]

    local = np.repeat(np.arange(len(deg), dtype=np.int64), deg)
    keys = sorted_arc_keys(local, rank[nbrs], n)
    base = np.arange(len(deg), dtype=np.int64) * n

    def tag(threshold: np.ndarray) -> np.ndarray:
        return np.searchsorted(keys, base + threshold) - row_start

    same = tag(level_start[row_levels])
    plus = tag(level_start[row_levels + 1])
    high = tag(row_rank)
    local *= n
    keys -= local
    return order[keys], same, plus, high


@dataclass(frozen=True)
class LevelSetScores:
    """Scores of every level set ``S_k = G[{v : level(v) >= k}]``.

    One record type serves every family: for unweighted families ``values``
    holds :class:`~repro.engine.primary.PrimaryValues`, for the weighted
    family :class:`~repro.weighted.metrics.WeightedPrimaryValues` plus the
    per-level strength ``thresholds``.
    """

    metric: Metric
    totals: GraphTotals
    #: ``scores[k]`` = metric score of ``S_k``; ``nan`` for empty sets.
    scores: np.ndarray
    #: ``values[k]`` = primary values of ``S_k``.
    values: tuple
    #: Per-level thresholds for quantised (weighted) hierarchies, else None.
    thresholds: np.ndarray | None = None

    @property
    def max_level(self) -> int:
        """Largest level with a defined (possibly empty) set."""
        return len(self.scores) - 1

    @property
    def kmax(self) -> int:
        """Alias of :attr:`max_level` (the k-core vocabulary)."""
        return self.max_level

    def best_k(self) -> int:
        """Argmax of the scores; ties broken towards the largest k."""
        finite = ~np.isnan(self.scores)
        if not finite.any():
            raise EmptyGraphError("no non-empty level set to choose from")
        best = np.nanmax(self.scores)
        return int(np.flatnonzero(finite & (self.scores == best)).max())

    def best_level(self) -> int:
        """Alias of :meth:`best_k` (the weighted vocabulary)."""
        return self.best_k()

    def __repr__(self) -> str:
        name = getattr(self.metric, "name", str(self.metric))
        return f"LevelSetScores(metric={name!r}, max_level={self.max_level})"


# ----------------------------------------------------------------------
# Shared accumulation arithmetic (Algorithms 2 / 3)
# ----------------------------------------------------------------------

def unweighted_level_charges(ordering) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex ``(2*inside, boundary)`` edge-count charges from the tags.

    Reads the tags of a :class:`LevelOrdering`.  Every vertex contributes ``2|N(v,>)| + |N(v,=)|`` internal
    edge-endpoints and ``|N(v,<)| - |N(v,>)|`` boundary edges to its own
    level.
    """
    deg = np.diff(ordering.indptr)
    n_lt = ordering.same
    n_eq = ordering.plus - ordering.same
    n_gt = deg - ordering.plus
    return 2 * n_gt + n_eq, n_lt - n_gt


def accumulate_level_totals(
    twice_inside: np.ndarray,
    boundary: np.ndarray,
    order: np.ndarray,
    level_start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Suffix-sum the per-vertex charges into per-level-set totals.

    Returns ``(num_k, twice_in_k, out_k)``, arrays of length
    ``max_level + 2`` indexed by k (the final entry — the empty set — is
    zero).  Works unchanged for integer edge-count charges and for float
    weight charges; the arithmetic is the paper's Algorithm 2 evaluated as
    suffix sums over the level-sorted vertex order.
    """
    zero = [0.0] if twice_inside.dtype.kind == "f" else [0]
    suffix_in = np.concatenate([np.cumsum(twice_inside[order][::-1])[::-1], zero])
    suffix_out = np.concatenate([np.cumsum(boundary[order][::-1])[::-1], zero])
    starts = level_start
    twice_in_k = suffix_in[starts]
    out_k = suffix_out[starts]
    num_k = len(order) - starts
    return num_k, twice_in_k, out_k


def cumulate_from_top(new: np.ndarray) -> np.ndarray:
    """Top-down cumulation of per-level increments into per-set totals.

    Appends the zero entry for the empty set above the deepest level.
    """
    return np.concatenate([np.cumsum(new[::-1])[::-1], [0]])


def triangle_level_increments(
    ordering,
    order: np.ndarray,
    level_start: np.ndarray,
    *,
    backend=None,
    charges: np.ndarray | None = None,
    triplets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3's per-level increments of triangles and triplets.

    Returns ``(tri_new, trip_new)``, arrays of length ``max_level + 1``
    where index k holds the number of triangles/triplets present in the
    level-k set but not in the level-``k+1`` set.  Cumulating from the top
    (:func:`cumulate_from_top`) yields the counts of every level set.

    Both are per-shell sums of per-vertex charges from the kernel registry
    (see :mod:`repro.engine.triangles`): triangles charged to their
    minimum-rank corner, triplets to a vertex of the level where they
    appear.  Precomputed ``charges`` / ``triplets`` arrays (e.g. cached on
    a :class:`~repro.index.BestKIndex`) skip their passes; the grouping
    itself is O(n).
    """
    if charges is None:
        charges = triangles_by_min_rank_vertex(ordering, backend=backend)
    if triplets is None:
        triplets = triplet_charges(ordering, backend=backend)
    return _shell_sums(charges, order, level_start), _shell_sums(triplets, order, level_start)


def _shell_sums(per_vertex: np.ndarray, order: np.ndarray, level_start: np.ndarray) -> np.ndarray:
    """``out[k]`` = exact sum of ``per_vertex`` over the level-k shell."""
    cum = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(per_vertex[order], out=cum[1:])
    return np.diff(cum[level_start])


def _unweighted_values(
    num: int, twice_inside, boundary, triangles=None, triplets=None
) -> PrimaryValues:
    """Default value assembly: integer edge counts (the unweighted case)."""
    return PrimaryValues(
        num_vertices=int(num),
        num_edges=int(twice_inside) // 2,
        num_boundary=int(boundary),
        num_triangles=None if triangles is None else int(triangles),
        num_triplets=None if triplets is None else int(triplets),
    )


def scores_from_level_totals(
    metric: Metric,
    totals: GraphTotals,
    num_k: np.ndarray,
    twice_in_k: np.ndarray,
    out_k: np.ndarray,
    tri_k: np.ndarray | None = None,
    trip_k: np.ndarray | None = None,
    *,
    make_values=None,
    thresholds: np.ndarray | None = None,
) -> LevelSetScores:
    """Assemble :class:`LevelSetScores` from accumulated per-set totals.

    This is THE per-level scan loop of Algorithms 2/3 — the only one in the
    package.  Every family (and the shared :class:`~repro.index.BestKIndex`)
    funnels through it; ``make_values`` is the family hook that turns one
    level's accumulated charges into its primary-values record.
    """
    if make_values is None:
        make_values = _unweighted_values
    max_level = len(num_k) - 2
    values = []
    scores = np.full(max_level + 1, np.nan)
    for k in range(max_level + 1):
        pv = make_values(
            num_k[k],
            twice_in_k[k],
            out_k[k],
            None if tri_k is None else tri_k[k],
            None if trip_k is None else trip_k[k],
        )
        values.append(pv)
        scores[k] = metric.score(pv, totals)
    return LevelSetScores(metric, totals, scores, tuple(values), thresholds)


def level_set_scores(
    graph: Graph,
    levels: np.ndarray,
    metric,
    *,
    ordering: LevelOrdering | None = None,
    backend=None,
) -> LevelSetScores:
    """Score every level set of a raw ``levels`` array (Algorithm 2 / 3).

    The historic entry point, kept as the door for ad-hoc level arrays; it
    routes through the same generic family path as every registered
    hierarchy (a raw array is just the anonymous family whose decomposition
    *is* the array).
    """
    from .family import RAW_LEVELS, family_set_scores

    return family_set_scores(
        graph,
        RAW_LEVELS,
        metric,
        decomposition=np.asarray(levels, dtype=np.int64),
        ordering=ordering,
        backend=backend,
    )
