"""Vertex ordering with position tags — paper Section III-B, Algorithm 1.

Given a core decomposition, every adjacency list is re-ordered by ascending
*vertex rank*, where ``rank(v) > rank(u)`` iff ``c(v) > c(u)``, or
``c(v) == c(u)`` and ``id(v) > id(u)`` (Definition 5), and three position
tags are recorded per vertex (Table II): ``same``, ``plus`` and ``high``.
With the tags, every ``|N(v, .)|`` query is O(1) and the corresponding
neighbour slice is a contiguous array view.  This is the "index building"
stage of the paper's Optimal algorithms; it costs ``O(m)`` space.

The result is the engine's :class:`~repro.engine.levels.LevelOrdering`
with coreness as the level, the one ordering type of every family.  Its
``order``/``level_start`` are the decomposition's bin-sorted ``order`` and
``shell_start``, and ``levels`` is its ``coreness``: nothing is sorted
twice and nothing is copied.  After a graph delta the ordering can be
patched from the previous snapshot's (``base=``/``touched=``), which
re-sorts only the rows whose output can have changed.
"""

from __future__ import annotations

import numpy as np

from ..engine.levels import LevelOrdering, _rank_order_arcs
from ..graph.csr import Graph
from .decomposition import CoreDecomposition, core_decomposition

__all__ = ["order_vertices"]


def order_vertices(
    graph: Graph,
    decomposition: CoreDecomposition | None = None,
    *,
    base: LevelOrdering | None = None,
    touched: np.ndarray | None = None,
) -> LevelOrdering:
    """Run Algorithm 1: rank-order every adjacency list and tag positions.

    Parameters
    ----------
    graph:
        The input graph.
    decomposition:
        A precomputed :func:`core_decomposition` result; computed on the fly
        when omitted.
    base, touched:
        The ordering of an earlier snapshot of the same vertex ids and the
        vertices whose adjacency changed since (the endpoints of the
        delta).  Together they let only the affected rows be re-sorted;
        the result is identical to the cold build, which also runs
        instead when those rows hold more than a quarter of the arcs
        (:data:`~repro.engine.levels.PATCH_MAX_ARC_SHARE`).

    Complexity: ``O(m)`` space; the paper's two counting-sort passes are
    ``O(m)`` time, the one arc-key sort here ``O(m log m)``.  A patch
    sorts only the affected rows' arcs, plus ``O(n + m)`` array copies.
    """
    if decomposition is None:
        decomposition = core_decomposition(graph)
    return _rank_order_arcs(
        graph, decomposition.coreness, decomposition.order,
        decomposition.shell_start[: decomposition.kmax + 2],
        base=base, touched=touched,
    )


def _decomposition_of(graph: Graph, ordered: LevelOrdering | None) -> CoreDecomposition | None:
    """The core decomposition a coreness ordering was built from, in O(n)."""
    return None if ordered is None else CoreDecomposition(graph, ordered.levels)
