"""Shared fixtures and graph factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import core_decomposition
from repro.dynamic import GraphDelta, VersionedGraph, incremental_core_numbers
from repro.graph import Graph


def figure2_edges() -> list[tuple[int, int]]:
    """The paper's Figure 2 graph, 0-indexed (v_i -> i - 1).

    Two K4s (v1-v4 and v9-v12, coreness 3) bridged by a 2-shell
    (v5-v8); reconstructed from Examples 2, 4 and 5.
    """
    return [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),      # K4 on v1..v4
        (8, 9), (8, 10), (8, 11), (9, 10), (9, 11), (10, 11),  # K4 on v9..v12
        (4, 2), (4, 5),            # v5 - v3, v5 - v6
        (5, 2), (5, 6), (5, 7),    # v6 - v3, v6 - v7, v6 - v8
        (6, 7),                    # v7 - v8
        (7, 8),                    # v8 - v9
    ]


@pytest.fixture()
def figure2() -> Graph:
    """The paper's running example (Figure 2)."""
    return Graph.from_edges(figure2_edges())


@pytest.fixture()
def triangle() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture()
def path5() -> Graph:
    """A path on 5 vertices (1-degenerate, no triangles)."""
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture()
def cycle6() -> Graph:
    return Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture()
def clique6() -> Graph:
    return Graph.from_edges([(i, j) for i in range(6) for j in range(i + 1, 6)])


@pytest.fixture()
def star() -> Graph:
    """A star with 7 leaves (kmax = 1)."""
    return Graph.from_edges([(0, i) for i in range(1, 8)])


@pytest.fixture()
def two_components() -> Graph:
    """A triangle and a path, disconnected, plus an isolated vertex."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], num_vertices=7)


@pytest.fixture()
def empty_graph() -> Graph:
    return Graph.empty(0)


@pytest.fixture()
def isolated_vertices() -> Graph:
    return Graph.empty(5)


def random_graph(n: int, m: int, seed: int) -> Graph:
    """A uniform random simple graph (edge count clipped to C(n, 2))."""
    rng = np.random.default_rng(seed)
    max_edges = n * (n - 1) // 2
    m = min(m, max_edges)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            chosen.add((min(int(u), int(v)), max(int(u), int(v))))
    return Graph.from_edges(sorted(chosen), num_vertices=n)


#: every outcome ``incremental_core_numbers(plan=)`` can be forced into
MAINTENANCE_PLANS = ("batched", "rebuild")


class CorenessStream:
    """A :class:`~repro.dynamic.VersionedGraph` plus its maintained coreness.

    Each :meth:`apply` advances one epoch (strict, so no-op edges raise)
    and repairs the coreness through ``incremental_core_numbers`` forced
    into ``plan``.
    """

    def __init__(self, graph: Graph, plan: str):
        self.versioned = VersionedGraph(graph)
        self.coreness = core_decomposition(graph).coreness
        self.plan = plan

    @property
    def graph(self) -> Graph:
        return self.versioned.graph

    def apply(self, delta) -> None:
        nxt = self.versioned.apply(delta)
        self.coreness = incremental_core_numbers(
            self.graph, self.coreness, nxt.applied,
            new_graph=nxt.graph, plan=self.plan,
        ).coreness
        self.versioned = nxt

    def insert(self, u: int, v: int) -> None:
        self.apply(GraphDelta.from_edges(insert=[(u, v)]))

    def delete(self, u: int, v: int) -> None:
        self.apply(GraphDelta.from_edges(delete=[(u, v)]))

    def assert_exact(self) -> None:
        """The maintained array must equal a fresh recomputation."""
        np.testing.assert_array_equal(
            self.coreness, core_decomposition(self.graph).coreness,
            err_msg=f"plan={self.plan}",
        )


def reference_csr(edges, num_vertices: int) -> tuple[list[int], list[int]]:
    """``(indptr, indices)`` of a clean edge list via sorted neighbour sets."""
    adjacency: list[set[int]] = [set() for _ in range(num_vertices)]
    for u, v in edges:
        adjacency[int(u)].add(int(v))
        adjacency[int(v)].add(int(u))
    indptr, indices = [0], []
    for nbrs in adjacency:
        indices.extend(sorted(nbrs))
        indptr.append(len(indices))
    return indptr, indices


def small_graph_zoo() -> list[tuple[str, Graph]]:
    """Named small graphs covering the structural corner cases."""
    zoo = [
        ("figure2", Graph.from_edges(figure2_edges())),
        ("triangle", Graph.from_edges([(0, 1), (1, 2), (0, 2)])),
        ("path", Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])),
        ("cycle", Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])),
        ("clique", Graph.from_edges([(i, j) for i in range(6) for j in range(i + 1, 6)])),
        ("star", Graph.from_edges([(0, i) for i in range(1, 8)])),
        ("two_components", Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], num_vertices=7)),
        ("isolated", Graph.empty(4)),
        ("single_edge", Graph.from_edges([(0, 1)])),
        ("bowtie", Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)])),
    ]
    return zoo


#: Degenerate graphs every family must survive: no vertices, no edges, one
#: edge, and a star (kmax 1).
PATHOLOGICAL = {
    "no-vertices": Graph.empty(0),
    "no-edges": Graph.empty(5),
    "single-edge": Graph.from_edges([(0, 1)]),
    "star-kmax-1": Graph.from_edges([(0, i) for i in range(1, 7)]),
}


def brute_triplets(graph, members):
    """Triplets (paths of length two) of the subgraph induced by ``members``."""
    inside = set(np.asarray(members).tolist())
    degrees = [len(inside.intersection(graph.neighbors(v).tolist())) for v in inside]
    return sum(d * (d - 1) // 2 for d in degrees)


def zoo_params():
    """``pytest.mark.parametrize`` helper over the zoo."""
    zoo = small_graph_zoo()
    return pytest.mark.parametrize(
        "graph", [g for _, g in zoo], ids=[name for name, _ in zoo]
    )
