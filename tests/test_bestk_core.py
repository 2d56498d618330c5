"""Tests for Problem 2: best single k-core (baseline + Algorithm 5)."""

import numpy as np
import pytest

from repro.core import (
    PAPER_METRICS,
    baseline_kcore_scores,
    best_single_kcore,
    build_core_forest,
    kcore_scores,
    order_vertices,
)
from repro.core.naive import kcore_scores_naive
from repro.errors import EmptyGraphError
from repro.graph import Graph
from conftest import random_graph, zoo_params


class TestAgainstBaseline:
    @zoo_params()
    @pytest.mark.parametrize("metric", ("average_degree", "conductance", "modularity",
                                        "clustering_coefficient"))
    def test_alg5_equals_baseline(self, graph, metric):
        forest = build_core_forest(graph)
        fast = kcore_scores(graph, metric, forest=forest)
        slow = baseline_kcore_scores(graph, metric, forest=forest)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)
        for a, b in zip(fast.values, slow.values):
            assert a == b

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("metric", PAPER_METRICS)
    def test_alg5_equals_baseline_random(self, seed, metric):
        g = random_graph(35, 100, seed)
        forest = build_core_forest(g)
        fast = kcore_scores(g, metric, forest=forest)
        slow = baseline_kcore_scores(g, metric, forest=forest)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)


class TestAgainstNaive:
    @pytest.mark.parametrize("metric", ("ad", "cc", "mod"))
    def test_scores_match_naive_enumeration(self, figure2, metric):
        scored = kcore_scores(figure2, metric)
        forest = scored.forest
        by_core = {
            frozenset(forest.component_vertices(node.node_id).tolist()): scored.scores[node.node_id]
            for node in forest.nodes
        }
        for k, core, score in kcore_scores_naive(figure2, metric):
            if core in by_core:
                assert by_core[core] == pytest.approx(score, nan_ok=True)


class TestBestSelection:
    def test_figure2_average_degree_prefers_whole_graph(self, figure2):
        best = best_single_kcore(figure2, "average_degree")
        assert best.k == 2
        assert len(best.vertices) == 12
        assert best.score == pytest.approx(2 * 19 / 12)

    def test_figure2_cc_prefers_a_k4(self, figure2):
        best = best_single_kcore(figure2, "cc")
        assert best.k == 3
        assert best.score == pytest.approx(1.0)
        assert len(best.vertices) == 4

    def test_tie_breaks_to_largest_k_then_smallest_node(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        best = best_single_kcore(g, "average_degree")
        assert best.k == 2
        # Both K3s score 2.0; the node storing the lower vertex ids wins
        # deterministically.
        assert best.vertices.tolist() in ([0, 1, 2], [3, 4, 5])

    def test_use_baseline_parity(self, figure2):
        for metric in ("ad", "cc", "con"):
            fast = best_single_kcore(figure2, metric)
            slow = best_single_kcore(figure2, metric, use_baseline=True)
            assert fast.score == pytest.approx(slow.score)
            assert fast.k == slow.k

    def test_best_node_is_argmax(self, figure2):
        scored = kcore_scores(figure2, "con")
        node = scored.best_node()
        finite = scored.scores[~np.isnan(scored.scores)]
        assert scored.scores[node] == finite.max()

    def test_ranked_nodes_descending(self, figure2):
        scored = kcore_scores(figure2, "ad")
        ranked = scored.ranked_nodes()
        vals = scored.scores[ranked]
        finite = vals[~np.isnan(vals)]
        assert (np.diff(finite) <= 0).all()


class TestIntegrity:
    @zoo_params()
    def test_every_core_is_connected_and_min_degree_k(self, graph):
        scored = kcore_scores(graph, "ad")
        forest = scored.forest
        for node in forest.nodes:
            members = forest.component_vertices(node.node_id)
            member_set = set(members.tolist())
            # Minimum degree within the core >= k.
            for v in members:
                inside = sum(1 for u in graph.neighbors(int(v)) if int(u) in member_set)
                assert inside >= node.k
            # Vertex count recorded by Algorithm 5 matches reconstruction.
            assert scored.values[node.node_id].num_vertices == len(members)

    def test_empty_graph_raises_on_best(self, empty_graph):
        scored = kcore_scores(empty_graph, "ad")
        with pytest.raises(EmptyGraphError):
            scored.best_node()

    def test_repr(self, figure2):
        best = best_single_kcore(figure2, "ad")
        assert "k=2" in repr(best)
        scored = kcore_scores(figure2, "ad")
        assert "nodes=3" in repr(scored)
