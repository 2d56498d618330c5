"""Global minimum cut (Stoer–Wagner) — substrate for k-ECC decomposition.

The Stoer–Wagner algorithm finds a global minimum edge cut of a connected
weighted graph by repeated maximum-adjacency searches.  Here each search
runs as numpy row operations over a dense weight matrix: the connection
vector ``conn`` gains the chosen vertex's row in one add, the next vertex
is a masked ``np.argmax``, and contracting ``t`` into ``s`` is a whole-row
add.  That is O(n³) element work with O(n²) Python steps, ample at the
scales the ECC decomposition cuts (it prunes each piece to its k-core
first, see :mod:`repro.ecc.decomposition`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stoer_wagner"]


def stoer_wagner(num_vertices: int, edges) -> tuple[float, list[int]]:
    """Global min cut of a connected weighted graph.

    Parameters
    ----------
    num_vertices:
        Vertices are ``0 .. num_vertices - 1``.
    edges:
        ``(u, v, weight)`` rows — a list of triples or an ``(e, 3)``
        array; parallel edges are merged, self loops ignored.

    Returns
    -------
    (cut_value, side)
        The minimum cut weight and the vertex list of one side.

    Ties in the search go to the lowest vertex id (``np.argmax`` returns
    the first maximum).

    Raises ``ValueError`` on fewer than two vertices (no cut exists).
    """
    n = num_vertices
    if n < 2:
        raise ValueError("a cut needs at least two vertices")
    rows = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    u, v = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    loop = u == v
    u, v, w = u[~loop], v[~loop], rows[~loop, 2]
    # Dense adjacency: n is small wherever this is used.  ``add.at`` merges
    # parallel edges in row order.
    weight = np.zeros((n, n), dtype=np.float64)
    np.add.at(weight, (u, v), w)
    np.add.at(weight, (v, u), w)

    # merged[i] = original vertices currently contracted into supernode i.
    merged: list[list[int]] = [[i] for i in range(n)]
    active = np.ones(n, dtype=bool)
    best_value = float("inf")
    best_side: list[int] = []

    for remaining in range(n, 1, -1):
        # Maximum-adjacency search over the active supernodes: chosen and
        # contracted-away vertices sit at -inf, so argmax only sees the
        # candidates (adding a row to -inf leaves it -inf).
        start = int(np.argmax(active))
        conn = weight[start].copy()
        conn[~active] = -np.inf
        conn[start] = -np.inf
        s, t = start, start
        for _ in range(remaining - 1):
            s, t = t, int(np.argmax(conn))
            conn += weight[t]
            conn[t] = -np.inf
        # Contracted rows and the diagonal are zero, so t's whole row sums
        # to its cut; cumsum adds strictly left to right, keeping float
        # weights bit-identical to a scalar loop over the active ids.
        cut_of_phase = float(np.cumsum(weight[t])[-1])
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = list(merged[t])
        # Contract t into s.
        merged[s].extend(merged[t])
        row = weight[t].copy()
        row[s] = 0.0
        weight[s] += row
        weight[:, s] = weight[s]
        weight[t] = 0.0
        weight[:, t] = 0.0
        active[t] = False
    return best_value, sorted(best_side)
