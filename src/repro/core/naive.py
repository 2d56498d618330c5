"""Naive reference implementations (test oracles).

Everything in this module is deliberately written the *slow, obvious* way —
straight from the definitions in Section II of the paper — so the optimised
algorithms can be property-tested against an independent implementation:

* coreness by literal repeated peeling,
* k-core sets by iterated minimum-degree deletion,
* connected k-cores by BFS over the peeled graph,
* primary values (including triangles) by brute-force neighbourhood pairs.

None of this is exported through the top-level API; it exists for the test
suite and for the benchmark harness's correctness cross-checks.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

import numpy as np

from ..graph.adjacency import AdjacencyGraph
from ..graph.csr import Graph
from ..engine import GraphTotals, Metric, PrimaryValues, get_metric

__all__ = [
    "coreness_naive",
    "kcore_set_vertices_naive",
    "kcores_naive",
    "all_kcores_naive",
    "primary_values_naive",
    "kcore_set_scores_naive",
    "best_kcore_set_naive",
    "kcore_scores_naive",
]


def coreness_naive(graph: Graph) -> np.ndarray:
    """Coreness of every vertex by repeated peeling (Definition 3/4).

    For k = 1, 2, ... repeatedly delete every vertex of degree < k; a vertex
    deleted in round k has coreness k - 1.
    """
    work = AdjacencyGraph.from_graph(graph)
    coreness = np.zeros(graph.num_vertices, dtype=np.int64)
    k = 1
    while work.num_vertices:
        while True:
            doomed = [v for v in work.vertices() if work.degree(v) < k]
            if not doomed:
                break
            for v in doomed:
                coreness[v] = k - 1
                work.remove_vertex(v)
        k += 1
    return coreness


def kcore_set_vertices_naive(graph: Graph, k: int) -> np.ndarray:
    """Vertex set of ``C_k`` by iterated minimum-degree deletion."""
    work = AdjacencyGraph.from_graph(graph)
    while True:
        doomed = [v for v in work.vertices() if work.degree(v) < k]
        if not doomed:
            break
        for v in doomed:
            work.remove_vertex(v)
    return np.asarray(sorted(work.vertices()), dtype=np.int64)


def kcores_naive(graph: Graph, k: int) -> list[frozenset[int]]:
    """All connected k-cores for one k, as vertex sets (Definition 1)."""
    members = set(map(int, kcore_set_vertices_naive(graph, k)))
    cores: list[frozenset[int]] = []
    unseen = set(members)
    while unseen:
        start = unseen.pop()
        component = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.neighbors(v):
                w = int(w)
                if w in members and w not in component:
                    component.add(w)
                    stack.append(w)
        unseen -= component
        cores.append(frozenset(component))
    return sorted(cores, key=lambda c: min(c))


def all_kcores_naive(graph: Graph) -> list[tuple[int, frozenset[int]]]:
    """Every connected k-core of every order ``1 <= k <= kmax``.

    Mirrors the candidate set of the best-single-k-core problem.  The
    ``k = 0`` cores (connected components of the whole graph) are included
    too, since the paper's problem statement ranges over ``0 <= k <= kmax``.
    """
    coreness = coreness_naive(graph)
    kmax = int(coreness.max()) if len(coreness) else 0
    out: list[tuple[int, frozenset[int]]] = []
    for k in range(kmax + 1):
        for core in kcores_naive(graph, k):
            out.append((k, core))
    return out


def primary_values_naive(
    graph: Graph, vertices: Iterable[int], *, count_triangles: bool = True
) -> PrimaryValues:
    """Brute-force primary values of the subgraph induced by ``vertices``.

    Triangles are counted by testing every neighbour pair of every member —
    an intentionally different method from the production forward counter.
    """
    members = set(int(v) for v in vertices)
    n_s = len(members)
    m_s = 0
    b_s = 0
    for v in members:
        for w in graph.neighbors(v):
            w = int(w)
            if w in members:
                if v < w:
                    m_s += 1
            else:
                b_s += 1
    triangles = triplets = None
    if count_triangles:
        triangles = 0
        triplets = 0
        for v in members:
            inside = [int(w) for w in graph.neighbors(v) if int(w) in members]
            triplets += len(inside) * (len(inside) - 1) // 2
            for a, b in combinations(inside, 2):
                if graph.has_edge(a, b):
                    triangles += 1
        triangles //= 3  # every triangle seen once per corner
    return PrimaryValues(n_s, m_s, b_s, triangles, triplets)


def kcore_set_scores_naive(graph: Graph, metric: str | Metric) -> list[float]:
    """Score of ``C_k`` for every k, fully from the definitions."""
    metric = get_metric(metric)
    totals = GraphTotals(graph.num_vertices, graph.num_edges)
    coreness = coreness_naive(graph)
    kmax = int(coreness.max()) if len(coreness) else 0
    scores = []
    for k in range(kmax + 1):
        members = kcore_set_vertices_naive(graph, k)
        pv = primary_values_naive(graph, members, count_triangles=metric.requires_triangles)
        scores.append(metric.score(pv, totals))
    return scores


def best_kcore_set_naive(graph: Graph, metric: str | Metric) -> tuple[int, float]:
    """``(k*, score)`` with ties broken towards the largest k."""
    scores = kcore_set_scores_naive(graph, metric)
    best_score = max(s for s in scores if not math.isnan(s))
    best_k = max(k for k, s in enumerate(scores) if not math.isnan(s) and s == best_score)
    return best_k, best_score


def kcore_scores_naive(graph: Graph, metric: str | Metric) -> list[tuple[int, frozenset[int], float]]:
    """Score of every single connected k-core, from the definitions."""
    metric = get_metric(metric)
    totals = GraphTotals(graph.num_vertices, graph.num_edges)
    out = []
    for k, core in all_kcores_naive(graph):
        pv = primary_values_naive(graph, core, count_triangles=metric.requires_triangles)
        out.append((k, core, metric.score(pv, totals)))
    return out
