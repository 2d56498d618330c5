"""Problem 2 for every family through the shared index.

``BestKIndex.best_node`` serves the best connected level set of the
truss, weighted and ecc families from the same artifact chain as the
core family's ``best_core``: forest, node totals and node triangles are
cached, persisted to the store and invalidated like Problem 1's.  The
contract is exact equality with the free function
``best_connected_level_set``, as ``(k, score.hex(), node_id, vertices)``,
from a cold index, a store-priming one and a store-hydrated one.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.chain as chain
from conftest import PATHOLOGICAL
from repro.engine import best_connected_level_set, get_family
from repro.errors import ReproError
from repro.generators import powerlaw_chung_lu
from repro.index import ArtifactStore, BestKIndex

FAMILIES = ("truss", "weighted", "ecc")

GRAPHS = {
    **PATHOLOGICAL,
    **{f"chung-lu-{seed}": powerlaw_chung_lu(60, 4.0, 2.3, seed=seed) for seed in (4, 5)},
}


def family_params(family: str, graph, seed: int = 0) -> dict:
    if family != "weighted":
        return {}
    rng = np.random.default_rng(seed)
    return {"edge_weights": rng.lognormal(0.0, 0.75, size=graph.num_edges), "num_levels": 8}


def answer(call):
    """``(k, score.hex(), node_id, vertices)`` of a Problem 2 call, or its error type."""
    try:
        result = call()
    except ReproError as exc:
        return type(exc).__name__
    return (result.k, result.score.hex(), result.node_id, result.vertices.tolist())


def free_answers(graph, family: str, params: dict) -> dict:
    fam = get_family(family)
    return {
        m: answer(lambda m=m: best_connected_level_set(graph, fam, m, **params))
        for m in fam.batch_metrics
    }


def index_answers(index: BestKIndex, family: str, params: dict) -> dict:
    fam = get_family(family)
    return {
        m: answer(lambda m=m: index.best_node(fam, m, **params)) for m in fam.batch_metrics
    }


@pytest.fixture()
def sweeps(monkeypatch) -> list:
    """Records every forest sweep the artifact chain runs."""
    calls: list = []
    original = chain.shell_sweep

    def counted(ordering):
        calls.append(1)
        return original(ordering)

    monkeypatch.setattr(chain, "shell_sweep", counted)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_store_state_equals_the_free_function(name, family, tmp_path, sweeps):
    graph = GRAPHS[name]
    params = family_params(family, graph)
    expected = free_answers(graph, family, params)
    store = ArtifactStore(tmp_path / "cache")
    cold = BestKIndex(graph, jobs=1, store=False)
    assert index_answers(cold, family, params) == expected
    priming = BestKIndex(graph, jobs=1, store=store)
    assert index_answers(priming, family, params) == expected
    sweeps.clear()
    hydrated = BestKIndex(graph, jobs=1, store=store)
    assert index_answers(hydrated, family, params) == expected
    if graph.num_vertices:
        # Forest, node totals and node triangles all came from the store.
        assert sweeps == []
        assert hydrated.build_seconds[f"{family}:forest"] == 0.0
        assert hydrated.build_seconds[f"{family}:node_totals"] == 0.0


@pytest.mark.parametrize("family", FAMILIES)
def test_node_scores_match_the_free_function_array_for_array(family):
    from repro.engine import family_node_scores

    graph = GRAPHS["chung-lu-4"]
    params = family_params(family, graph)
    index = BestKIndex(graph, jobs=1, store=False)
    fam = get_family(family)
    for metric in fam.batch_metrics:
        got = index.node_scores(fam, metric, **params)
        want = family_node_scores(graph, fam, metric, **params)
        assert np.array_equal(got.scores, want.scores, equal_nan=True)
        assert got.values == want.values
        # Memoized per (family, metric).
        assert index.node_scores(fam, metric, **params) is got


def test_truss_forest_is_the_vertex_level_one():
    # The index's truss Problem 2 groups level-k vertices joined by any
    # edge, exactly like best_connected_level_set; repro.truss's
    # edge-connected best_single_ktruss is a different capability.
    graph = GRAPHS["chung-lu-5"]
    index = BestKIndex(graph, jobs=1, store=False)
    levels = index.artifact("truss", "levels")
    forest = index.artifact("truss", "forest")
    assert forest.num_vertices == graph.num_vertices
    assert sorted(forest.vertices.tolist()) == list(range(graph.num_vertices))
    for node in forest.nodes:
        assert all(levels[v] == node.k for v in node.vertices)


class TestWeightedInvalidation:
    def test_new_edge_weights_rebuild_the_forest_and_node_scores(self, sweeps):
        graph = GRAPHS["chung-lu-4"]
        index = BestKIndex(graph, jobs=1, store=False)
        first = family_params("weighted", graph, seed=1)
        second = family_params("weighted", graph, seed=2)
        metric = "weighted_average_degree"
        before = index.node_scores("weighted", metric, **first)
        forest = index.artifact("weighted", "forest", **first)
        assert len(sweeps) == 1
        # Same array object: every artifact and memo is reused.
        assert index.node_scores("weighted", metric, **first) is before
        assert len(sweeps) == 1
        after = index.node_scores("weighted", metric, **second)
        assert len(sweeps) == 2
        assert after is not before
        assert index.artifact("weighted", "forest", **second) is not forest
        expected = best_connected_level_set(graph, "weighted", metric, **second)
        got = index.best_node("weighted", metric, **second)
        assert (got.k, got.score.hex(), got.node_id, got.vertices.tolist()) == (
            expected.k, expected.score.hex(), expected.node_id, expected.vertices.tolist()
        )
        assert got.threshold == expected.threshold

    def test_new_edge_weights_drop_the_node_values(self):
        graph = GRAPHS["chung-lu-5"]
        index = BestKIndex(graph, jobs=1, store=False)
        first = family_params("weighted", graph, seed=1)
        index.node_scores("weighted", "weighted_average_degree", **first)
        assert any(key[0] == "weighted" for key in index._node_values)
        index.artifact("weighted", "decompose", **family_params("weighted", graph, seed=3))
        assert not any(key[0] == "weighted" for key in index._node_values)
        assert not any(key[0] == "weighted" for key in index._node_scores)


def test_default_metric_and_core_vocabulary():
    graph = GRAPHS["chung-lu-5"]
    index = BestKIndex(graph, jobs=1, store=False)
    truss = index.best_node("truss")
    assert truss.metric_name == get_family("truss").default_metric
    assert index.best_core("average_degree") is not None
    assert index.core_scores("average_degree") is index.node_scores("core", "average_degree")
