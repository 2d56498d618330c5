"""Exact triangle and triplet counting on whole graphs.

Used by the from-scratch baseline (once per k!) and by tests as the oracle
for Algorithm 3's incremental counters.  The triangle counter is the
*forward* algorithm of Latapy [35]: orient every edge from lower to higher
degeneracy rank and intersect the out-neighbourhoods of the two endpoints.
Its ``O(m^1.5)`` bound is the optimality yardstick the paper cites.

The counting itself runs on the selected kernel backend (see
:mod:`repro.kernels`): the ``python`` backend intersects one out-list pair
at a time, the default ``numpy`` backend batches every intersection into
chunked hashed probes against one key table of ``owner * n + rank`` keys,
each arc ``v -> u`` probing only the part of ``v``'s out-list after ``u``
(or ``u``'s out-list, if that is shorter).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from ..kernels import KernelBackend, get_backend

__all__ = [
    "count_triangles",
    "count_triplets",
    "count_triangles_and_triplets",
    "triangles_by_min_rank_vertex",
    "triplet_charges",
]


def count_triangles(graph: Graph, *, backend: str | KernelBackend | None = None) -> int:
    """Number of triangles in ``graph`` (each counted once)."""
    return get_backend(backend).count_triangles(graph)


def count_triplets(graph: Graph) -> int:
    """Number of triplets: ``sum_v C(d(v), 2)`` (paths of length two)."""
    d = graph.degrees()
    return int((d * (d - 1) // 2).sum())


def count_triangles_and_triplets(
    graph: Graph, *, backend: str | KernelBackend | None = None
) -> tuple[int, int]:
    """Both counts in one call (the pair every triangle metric needs)."""
    return count_triangles(graph, backend=backend), count_triplets(graph)


# ----------------------------------------------------------------------
# Incremental counters shared by Algorithm 3 and Algorithm 5
# ----------------------------------------------------------------------
#
# Both algorithms charge every triangle and every triplet to one vertex:
# a triangle to its minimum-rank corner, a triplet to a vertex of the level
# where it first appears.  Algorithm 3 then sums the charges per shell (best
# k-core set) and Algorithm 5 per forest node (best single k-core), each an
# O(n) regrouping of the same two per-vertex arrays.  The charging kernels
# live in the backend registry (the ``python`` backend is the scalar
# per-neighbour loop, the ``numpy`` backend batched, tail-bounded key-table
# probes for triangles and one prefix-arc scatter for triplets).

def triangles_by_min_rank_vertex(
    ordered, *, backend: str | KernelBackend | None = None
) -> np.ndarray:
    """Per-vertex triangle charges under the rank order (Algorithm 3, lines 7-12).

    ``result[v]`` is the number of triangles whose minimum-rank corner is
    ``v``.  Because the three corners of a triangle in a k-core (but not the
    (k+1)-core) have their minimum-rank corner in the k-shell, summing the
    charges over any shell — or over a forest node's vertices — yields the
    incremental triangle count of that shell/node.

    O(m^1.5) total: every higher-rank neighbourhood has size O(sqrt(m))
    under a degeneracy-compatible order (proof in paper Section III-D).
    """
    return get_backend(backend).triangle_charges(ordered)


def triplet_charges(
    ordered, *, backend: str | KernelBackend | None = None
) -> np.ndarray:
    """Per-vertex triplet charges under the rank order (Algorithm 3, lines 13-22).

    A triplet (centre ``x``, legs ``y``, ``z``) first appears at the
    lowest level among its three vertices.  It is charged to ``x`` when
    both legs have level ``>= level(x)``, else to its lowest-rank leg,
    whose level is then the lowest: ``result[y]`` is
    ``C(|N(y, >=)|, 2)`` plus, for every arc ``x -> y`` in the
    lower-level prefix of ``x``'s rank-sorted row, the number of arcs
    after it in that row.  The charged vertex is adjacent to or is the
    centre, and the other two vertices lie at its level or above, so it
    sits in the level set and the connected component where the triplet
    appears.  Summing over a shell therefore gives the shell's triplet
    increment, and summing over a forest node's own vertices gives the
    node's.  O(m): one pass over every row's lower-level prefix.
    """
    return get_backend(backend).triplet_charges(ordered)
