"""Tests for the core forest: the shell sweep against LCPS (Algorithm 4)
and against a definitional BFS oracle for any level function."""

import importlib
import math
from collections import deque

import numpy as np
import pytest

import repro.engine.forest as forest_module
from repro.core import (
    best_single_kcore,
    build_core_forest,
    build_core_forest_lcps,
    core_decomposition,
)
from repro.core.naive import all_kcores_naive, coreness_naive
from repro.engine import LevelForest, build_level_forest, family_node_scores, get_family
from repro.generators import powerlaw_chung_lu
from repro.graph import Graph
from repro.index import ArtifactStore, BestKIndex
from conftest import PATHOLOGICAL, brute_triplets, random_graph, zoo_params

FOREST_ARRAYS = ("k", "parent", "vert_ptr", "vertices")


def assert_same_arrays(expected, actual):
    """Two forests are equal array for array, numbering included."""
    for field in FOREST_ARRAYS:
        np.testing.assert_array_equal(
            getattr(actual, field), getattr(expected, field), err_msg=field
        )


def oracle_forest_arrays(graph, levels):
    """Definitional level forest, canonically numbered.

    One node per BFS component of ``G[level >= k]`` that holds a level-k
    vertex; its parent is the node of the deepest lower level whose
    component contains it.
    """
    levels = np.asarray(levels)
    found = []  # (k, shell, component)
    for k in sorted(set(levels.tolist()), reverse=True):
        seen = set()
        for start in np.flatnonzero(levels >= k).tolist():
            if start in seen:
                continue
            seen.add(start)
            component, queue = {start}, deque([start])
            while queue:
                v = queue.popleft()
                for w in graph.neighbors(v).tolist():
                    if levels[w] >= k and w not in seen:
                        seen.add(w)
                        component.add(w)
                        queue.append(w)
            shell = sorted(v for v in component if levels[v] == k)
            if shell:
                found.append((k, shell, component))
    found.sort(key=lambda node: (-node[0], node[1][0]))
    parent = []
    for k, shell, component in found:
        outer = [
            (kk, -i) for i, (kk, _, comp) in enumerate(found)
            if kk < k and component <= comp
        ]
        parent.append(-max(outer)[1] if outer else -1)
    sizes = [len(shell) for _, shell, _ in found]
    return {
        "k": np.asarray([k for k, _, _ in found], dtype=np.int64),
        "parent": np.asarray(parent, dtype=np.int64),
        "vert_ptr": np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
        "vertices": np.asarray([v for _, shell, _ in found for v in shell], dtype=np.int64),
    }


def assert_matches_oracle(graph, levels):
    forest = build_level_forest(graph, levels)
    expected = oracle_forest_arrays(graph, levels)
    for field in FOREST_ARRAYS:
        np.testing.assert_array_equal(getattr(forest, field), expected[field], err_msg=field)


class TestAgainstEachOther:
    @zoo_params()
    def test_lcps_equals_union_find(self, graph):
        assert_same_arrays(build_core_forest_lcps(graph), build_core_forest(graph))

    @pytest.mark.parametrize("seed", range(10))
    def test_lcps_equals_union_find_random(self, seed):
        g = random_graph(30 + 5 * seed, 70 + 15 * seed, seed)
        assert_same_arrays(build_core_forest_lcps(g), build_core_forest(g))

    @zoo_params()
    def test_sweep_equals_oracle(self, graph):
        assert_matches_oracle(graph, core_decomposition(graph).coreness)


class TestLevelForestOracle:
    """The sweep on non-core levels against the BFS definition."""

    @pytest.mark.parametrize("seed", range(6))
    def test_truss_levels(self, seed):
        g = random_graph(40, 140 + 20 * seed, seed)
        fam = get_family("truss")
        assert_matches_oracle(g, fam.levels(fam.decompose(g)))

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_levels(self, seed):
        g = random_graph(40, 120 + 20 * seed, seed)
        fam = get_family("weighted")
        weights = np.random.default_rng(seed).lognormal(sigma=0.75, size=g.num_edges)
        levels = fam.levels(fam.decompose(g, edge_weights=weights), num_levels=8)
        assert_matches_oracle(g, levels)

    def test_level_gap(self):
        # Triangle {0,1,2} at level 5 and edge {3,4} at level 4, joined
        # through vertex 5 at level 1: no component gains a vertex at
        # levels 2-3, and the level-1 node adopts both deeper nodes.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (2, 5), (5, 3)])
        levels = np.array([5, 5, 5, 4, 4, 1])
        forest = build_level_forest(g, levels)
        assert forest.k.tolist() == [5, 4, 1]
        assert forest.parent.tolist() == [2, 2, -1]
        assert forest.children == ((), (), (0, 1))
        assert_matches_oracle(g, levels)

    def test_same_level_nodes_ordered_by_smallest_shell_vertex(self):
        # Component {0, 1, 2, 9} holds the smallest vertex overall, but its
        # level-1 shell {9} sorts after the other component's shell {5, 6}.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 9), (5, 6)], num_vertices=10)
        forest = build_core_forest(g)
        assert forest.k.tolist() == [2, 1, 1, 0, 0, 0, 0]
        assert forest.vertices.tolist() == [0, 1, 2, 5, 6, 9, 3, 4, 7, 8]
        assert forest.parent.tolist() == [2, -1, -1, -1, -1, -1, -1]
        assert_same_arrays(build_core_forest_lcps(g), forest)
        assert_matches_oracle(g, core_decomposition(g).coreness)

    def test_empty_graph(self, empty_graph):
        forest = build_level_forest(empty_graph, np.empty(0, dtype=np.int64))
        assert forest.num_nodes == 0
        assert forest.vert_ptr.tolist() == [0]
        assert_same_arrays(build_core_forest_lcps(empty_graph), build_core_forest(empty_graph))

    def test_isolated_vertices_only(self, isolated_vertices):
        forest = build_core_forest(isolated_vertices)
        assert forest.k.tolist() == [0] * 5
        assert forest.parent.tolist() == [-1] * 5
        assert forest.vertices.tolist() == [0, 1, 2, 3, 4]
        assert_same_arrays(build_core_forest_lcps(isolated_vertices), forest)

    def test_rejects_bad_levels(self, triangle):
        with pytest.raises(ValueError):
            build_level_forest(triangle, np.array([1, 1]))
        with pytest.raises(ValueError):
            build_level_forest(triangle, np.array([1, -1, 1]))


class GatherBudget(np.ndarray):
    """A union-find array view that fails once it has served ``budget`` gathers."""

    def __getitem__(self, key):
        self.budget -= 1
        if self.budget < 0:
            raise AssertionError("root lookups exceeded their log-depth budget")
        return np.asarray(super().__getitem__(key))


#: Long enough that walking a chain one step per round shows.
CHAIN = 100_000


def ascending_path(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def row_major_grid(rows: int, cols: int) -> Graph:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(right + down)


class TestLongChains:
    """Ids ascending along a path, cycle or grid make one hooking round
    chain every root onto the next smaller one; the lookups must still
    take a number of rounds logarithmic in the chain length."""

    @pytest.fixture
    def budgeted(self, monkeypatch):
        """Every ``_flatten`` call gets 2 * (log2(n) + 2) gathers, two per
        doubling round; walking a chain one step per round overruns it."""
        module = importlib.import_module("repro.engine.forest")
        flatten = module._flatten
        calls = []

        def counted(uf, nodes):
            view = uf.view(GatherBudget)
            view.budget = 2 * (math.ceil(math.log2(max(len(uf), 2))) + 2)
            calls.append(len(nodes))
            flatten(view, nodes)

        monkeypatch.setattr(module, "_flatten", counted)
        return calls

    def test_flatten_halves_a_chain(self):
        uf = np.arange(-1, CHAIN - 1, dtype=np.int64)
        uf[0] = 0
        view = uf.view(GatherBudget)
        view.budget = 2 * (math.ceil(math.log2(CHAIN)) + 2)
        importlib.import_module("repro.engine.forest")._flatten(view, np.arange(CHAIN))
        assert not uf.any()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ascending_path(CHAIN),
            lambda: Graph.from_edges([(i, (i + 1) % CHAIN) for i in range(CHAIN)]),
            lambda: row_major_grid(300, 300),
        ],
        ids=["path", "cycle", "grid"],
    )
    def test_one_level_chain(self, make, budgeted):
        graph = make()
        forest = build_level_forest(graph, np.zeros(graph.num_vertices, dtype=np.int64))
        assert forest.k.tolist() == [0]
        np.testing.assert_array_equal(forest.vertices, np.arange(graph.num_vertices))
        assert budgeted

    def test_core_forest_of_a_long_path(self, budgeted):
        forest = build_core_forest(ascending_path(CHAIN))
        assert forest.k.tolist() == [1]
        assert forest.parent.tolist() == [-1]
        assert len(forest.vertices) == CHAIN

    def test_staircase(self, budgeted):
        # Vertex i at level n - 1 - i: every level merges the component
        # above it, so the forest is one chain of n nodes.
        n = 300
        levels = np.arange(n - 1, -1, -1)
        graph = ascending_path(n)
        forest = build_level_forest(graph, levels)
        assert forest.parent.tolist() == list(range(1, n)) + [-1]
        assert_matches_oracle(graph, levels)


def twin_k5s(bridge: bool) -> Graph:
    """Two K5s on interleaved ids {1,3,5,7,9} and {0,2,4,6,8}, optionally
    joined through a path 9-10-0, so every metric ties between them."""
    odd, even = [1, 3, 5, 7, 9], [0, 2, 4, 6, 8]
    edges = [(a, b) for part in (odd, even) for i, a in enumerate(part) for b in part[i + 1:]]
    if bridge:
        edges += [(9, 10), (10, 0)]
    return Graph.from_edges(edges, num_vertices=11)


class TestCanonicalTieBreak:
    """Equal-score cores resolve to the one holding the smallest vertex."""

    METRICS = ("average_degree", "internal_density", "clustering_coefficient")

    @pytest.mark.parametrize("bridge", [False, True])
    @pytest.mark.parametrize("builder", [build_core_forest, build_core_forest_lcps])
    def test_every_builder(self, bridge, builder):
        g = twin_k5s(bridge)
        for metric in self.METRICS:
            result = best_single_kcore(g, metric, forest=builder(g))
            assert result.k == 4
            assert result.vertices.tolist() == [0, 2, 4, 6, 8]

    @pytest.mark.parametrize("bridge", [False, True])
    def test_every_store_state(self, bridge, tmp_path):
        g = twin_k5s(bridge)
        store = ArtifactStore(tmp_path / "cache")
        states = [BestKIndex(g, store=False)]
        states.append(BestKIndex(g, store=store))  # cold: builds and persists
        states.append(BestKIndex(g, store=store))  # warm: hydrates the forest
        for index in states:
            for metric in self.METRICS:
                result = index.best_core(metric)
                assert (result.k, result.node_id) == (4, 0)
                assert result.vertices.tolist() == [0, 2, 4, 6, 8]
        assert states[-1].build_seconds["core:forest"] == 0.0  # hydrated, not built
        assert_same_arrays(
            states[0].artifact("core", "forest"), states[-1].artifact("core", "forest")
        )

    def test_twin_pendant_triangles_pinned(self, tmp_path):
        """Two copies of a triangle with a pendant vertex: every metric ties
        between the copies, and the copy holding vertex 0 answers — for
        cut_ratio and conductance the whole k=1 component."""
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (4, 6), (6, 7)],
            num_vertices=8,
        )
        expected = {
            "cut_ratio": (1, [0, 1, 2, 3]),
            "conductance": (1, [0, 1, 2, 3]),
            "internal_density": (2, [0, 1, 2]),
        }
        store = ArtifactStore(tmp_path / "cache")
        indexes = [BestKIndex(g, store=False)]
        indexes += [BestKIndex(g, store=store) for _ in range(2)]  # cold, then warm
        for metric, (k, vertices) in expected.items():
            for builder in (build_core_forest, build_core_forest_lcps):
                result = best_single_kcore(g, metric, forest=builder(g))
                assert (result.k, result.vertices.tolist()) == (k, vertices)
            for index in indexes:
                result = index.best_core(metric)
                assert (result.k, result.vertices.tolist()) == (k, vertices)


class TestStructuralInvariants:
    def test_figure2_forest_shape(self, figure2):
        forest = build_core_forest(figure2)
        assert forest.num_nodes == 3
        ks = sorted(node.k for node in forest.nodes)
        assert ks == [2, 3, 3]
        root = [n for n in forest.nodes if n.parent == -1]
        assert len(root) == 1 and root[0].k == 2
        assert len(root[0].children) == 2

    @zoo_params()
    def test_nodes_partition_vertices(self, graph):
        forest = build_core_forest(graph)
        seen = np.concatenate([n.vertices for n in forest.nodes]) if forest.num_nodes else np.empty(0)
        assert sorted(seen.tolist()) == list(range(graph.num_vertices))

    @zoo_params()
    def test_node_vertices_have_node_coreness(self, graph):
        decomp = core_decomposition(graph)
        forest = build_core_forest(graph, decomp)
        for node in forest.nodes:
            assert (decomp.coreness[node.vertices] == node.k).all()

    @zoo_params()
    def test_children_strictly_deeper_and_lower_ids(self, graph):
        forest = build_core_forest(graph)
        for node in forest.nodes:
            for child in node.children:
                assert forest.nodes[child].k > node.k
                assert child < node.node_id
                assert forest.nodes[child].parent == node.node_id

    @zoo_params()
    def test_nodes_sorted_descending_k(self, graph):
        forest = build_core_forest(graph)
        ks = [node.k for node in forest.nodes]
        assert ks == sorted(ks, reverse=True)

    @zoo_params()
    def test_cores_match_naive_enumeration(self, graph):
        forest = build_core_forest(graph)
        key = lambda pair: (pair[0], sorted(pair[1]))
        reconstructed = sorted(
            (
                (node.k, frozenset(forest.component_vertices(node.node_id).tolist()))
                for node in forest.nodes
            ),
            key=key,
        )
        # The naive enumeration lists every (k, core); the forest stores one
        # node per core *with at least one coreness-k vertex* — project the
        # naive list accordingly.
        coreness = coreness_naive(graph)
        naive = sorted(
            (
                (k, core) for k, core in all_kcores_naive(graph)
                if any(coreness[v] == k for v in core)
            ),
            key=key,
        )
        assert reconstructed == naive

    def test_roots_one_per_component_with_edges(self, two_components):
        forest = build_core_forest(two_components)
        # triangle component, path component, and the isolated vertex
        assert len(forest.roots) == 3


def shared_higher_neighbours(graph, levels, forest):
    """Vertices adjacent to two distinct equal-level nodes of lower level."""
    levels = np.asarray(levels)
    node_of = np.empty(graph.num_vertices, dtype=np.int64)
    node_of[forest.vertices] = np.repeat(np.arange(forest.num_nodes), np.diff(forest.vert_ptr))
    edges = graph.edge_array()
    if len(edges) == 0:
        return []
    u, v = edges[:, 0], edges[:, 1]
    high = np.where(levels[u] > levels[v], u, v)
    low = np.where(levels[u] > levels[v], v, u)
    keep = levels[high] != levels[low]
    pairs = np.unique(np.stack([high[keep], node_of[low[keep]]], axis=1), axis=0)
    centre_level = np.stack([pairs[:, 0], forest.k[pairs[:, 1]]], axis=1)
    seen, counts = np.unique(centre_level, axis=0, return_counts=True)
    return seen[counts > 1, 0].tolist()


class TestTripletPrecondition:
    """What the node regrouping of the triplet charges relies on.

    No two equal-level forest nodes share a neighbour of higher level
    (it would join them into one component).  A triplet centred on such a
    neighbour with one leg in each node would be charged to one of them
    while it spans both, so if a forest change ever breaks this, the node
    triplet totals would miscount silently.
    """

    @zoo_params()
    @pytest.mark.parametrize("family", ["core", "truss"])
    def test_zoo(self, graph, family):
        fam = get_family(family)
        levels = fam.levels(fam.decompose(graph))
        forest = build_level_forest(graph, levels)
        assert shared_higher_neighbours(graph, levels, forest) == []

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("family", ["core", "truss"])
    def test_random(self, seed, family):
        g = random_graph(40 + 10 * seed, 90 + 30 * seed, seed)
        fam = get_family(family)
        levels = fam.levels(fam.decompose(g))
        assert shared_higher_neighbours(g, levels, build_level_forest(g, levels)) == []

    def test_detects_a_violation(self):
        # Two level-1 pendants on one level-2 triangle vertex: as two
        # separate nodes (an invalid forest) they share that vertex.
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 3), (0, 4)])
        levels = np.array([2, 2, 2, 1, 1])
        split = LevelForest([2, 1, 1], [-1, -1, -1], [0, 3, 4, 5], [0, 1, 2, 3, 4], 5)
        assert shared_higher_neighbours(g, levels, split) == [0]
        assert shared_higher_neighbours(g, levels, build_level_forest(g, levels)) == []


class TestQueries:
    def test_node_of_vertex(self, figure2):
        forest = build_core_forest(figure2)
        for node in forest.nodes:
            for v in node.vertices:
                assert forest.node_of_vertex(int(v)) == node.node_id

    def test_core_containing_exact_level(self, figure2):
        forest = build_core_forest(figure2)
        node_id = forest.containing(0, 3)
        assert forest.nodes[node_id].k == 3
        assert set(forest.component_vertices(node_id).tolist()) == {0, 1, 2, 3}

    def test_core_containing_skipped_level(self, figure2):
        # No 1-core node exists; the 1-core coincides with the 2-core root.
        forest = build_core_forest(figure2)
        node_id = forest.containing(0, 1)
        assert forest.nodes[node_id].k == 2
        assert len(forest.component_vertices(node_id)) == 12

    def test_core_containing_rejects_high_k(self, figure2):
        forest = build_core_forest(figure2)
        with pytest.raises(ValueError):
            forest.containing(4, 3)  # v5 has coreness 2

    def test_empty_graph(self, empty_graph):
        forest = build_core_forest(empty_graph)
        assert forest.num_nodes == 0
        assert forest.roots == ()

    def test_isolated_vertices_become_zero_nodes(self, isolated_vertices):
        forest = build_core_forest(isolated_vertices)
        assert forest.num_nodes == 5
        assert all(node.k == 0 for node in forest.nodes)

    def test_repr(self, figure2):
        forest = build_core_forest(figure2)
        assert "nodes=3" in repr(forest)

    @zoo_params()
    @pytest.mark.parametrize("branch", ["sort", "mask"])
    def test_component_vertices_both_branches(self, graph, branch, monkeypatch):
        # Force one branch for every node: the sort by an unreachable
        # minimum size, the mask by a zero minimum and a share of n + 1.
        if branch == "sort":
            monkeypatch.setattr(forest_module, "_MASK_MIN", graph.num_vertices + 1)
        else:
            monkeypatch.setattr(forest_module, "_MASK_MIN", 0)
            monkeypatch.setattr(forest_module, "_MASK_SHARE", graph.num_vertices + 1)
        forest = build_core_forest(graph)
        for node_id in range(forest.num_nodes):
            subtree, stack = [], [node_id]
            while stack:
                i = stack.pop()
                subtree.append(i)
                stack.extend(forest.children[i])
            expected = np.sort(np.concatenate([forest.nodes[i].vertices for i in subtree]))
            got = forest.component_vertices(node_id)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


#: The degenerate graphs plus seeded sparse Chung–Lu graphs, each of which
#: has isolated vertices.
ORACLE_GRAPHS = {
    **PATHOLOGICAL,
    **{f"chung-lu-{seed}": powerlaw_chung_lu(80, 4.0, 2.3, seed=seed) for seed in range(3)},
}


class TestTripletOracle:
    """Level-set and forest-node triplet totals against a brute-force count
    of every ``G[S_k]`` and of every node's whole component."""

    def test_chung_lu_graphs_have_isolated_vertices(self):
        for name, graph in ORACLE_GRAPHS.items():
            if name.startswith("chung-lu"):
                assert (graph.degrees() == 0).any(), name

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_sweep_equals_lcps(self, name):
        graph = ORACLE_GRAPHS[name]
        assert_same_arrays(build_core_forest_lcps(graph), build_core_forest(graph))

    @pytest.mark.parametrize("backend", ["python", "numpy", "native"])
    @pytest.mark.parametrize("family", ["core", "truss", "ecc"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_level_and_node_totals(self, name, family, backend):
        graph = ORACLE_GRAPHS[name]
        fam = get_family(family)
        index = BestKIndex(graph, backend=backend, store=False)
        levels = index.artifact(fam, "levels")
        _, trip_k = index.artifact(fam, "level_triangles")
        assert trip_k.tolist() == [
            brute_triplets(graph, np.flatnonzero(levels >= k)) for k in range(len(trip_k))
        ]
        forest = index.artifact(fam, "forest")
        _, trip = index.artifact(fam, "node_triangles")
        assert list(trip) == [
            brute_triplets(graph, forest.component_vertices(i))
            for i in range(forest.num_nodes)
        ]
        scored = family_node_scores(
            graph, fam, "clustering_coefficient",
            decomposition=index.family_decomposition(fam), backend=backend,
        )
        assert_same_arrays(scored.forest, forest)
        assert [values.num_triplets for values in scored.values] == list(trip)
