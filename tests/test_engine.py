"""Tests for the hierarchy-engine layer (:mod:`repro.engine`).

Four pillars:

* **Genericity** — every registered family, scored through the ONE generic
  :func:`repro.engine.family_set_scores` implementation, is bit-identical
  to the from-scratch :func:`repro.engine.baseline_family_set_scores` for
  every metric in the family's batch, on random and pathological graphs.
* **Registry** — lookup, lazy built-in bootstrap, duplicate/typo handling.
* **Extensibility** — a fifth toy family (degree-capped hierarchy) defined
  *here*, without touching :mod:`repro.engine`, works end-to-end: scores,
  best-k, index caching, and the CLI.
* **Shims** — the historic per-family entry points delegate to the engine
  and still return the historic result shapes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BestKIndex
from repro.engine import (
    RAW_LEVELS,
    HierarchyFamily,
    available_families,
    baseline_family_node_scores,
    baseline_family_set_scores,
    best_connected_level_set,
    best_level_set,
    build_level_forest,
    family_node_scores,
    family_set_scores,
    get_family,
    level_ordering,
    level_set_scores,
    register_family,
)
from repro.engine.family import _REGISTRY
from repro.errors import ReproError, UnknownFamilyError
from repro.graph import Graph

from conftest import random_graph

FAMILIES = ("core", "truss", "ecc")  # weighted needs params; covered separately

PATHOLOGICAL = {
    "no-vertices": Graph.empty(0),
    "no-edges": Graph.empty(5),
    "single-edge": Graph.from_edges([(0, 1)]),
    "star-kmax-1": Graph.from_edges([(0, i) for i in range(1, 7)]),
}


def _cases():
    for family in FAMILIES:
        for metric in get_family(family).batch_metrics:
            yield family, metric


@pytest.fixture(scope="module")
def graph() -> Graph:
    return random_graph(90, 420, seed=23)


@pytest.fixture(scope="module")
def weights(graph) -> np.ndarray:
    return np.random.default_rng(8).lognormal(sigma=0.7, size=graph.num_edges)


class TestGenericEquivalence:
    @pytest.mark.parametrize("family,metric", list(_cases()))
    def test_incremental_matches_baseline(self, graph, family, metric):
        fam = get_family(family)
        decomposition = fam.decompose(graph)
        fast = family_set_scores(graph, fam, metric, decomposition=decomposition)
        slow = baseline_family_set_scores(graph, fam, metric, decomposition=decomposition)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True, atol=1e-9)
        if fam.supports_triangles:
            assert fast.values == slow.values

    @pytest.mark.parametrize("family,metric", list(_cases()))
    @pytest.mark.parametrize("name", sorted(PATHOLOGICAL))
    def test_pathological_graphs(self, family, metric, name):
        g = PATHOLOGICAL[name]
        fast = family_set_scores(g, family, metric)
        slow = baseline_family_set_scores(g, family, metric)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)

    @pytest.mark.parametrize("metric", get_family("weighted").batch_metrics)
    def test_weighted_incremental_matches_baseline(self, graph, weights, metric):
        params = {"edge_weights": weights, "num_levels": 32}
        fast = family_set_scores(graph, "weighted", metric, **params)
        slow = baseline_family_set_scores(graph, "weighted", metric, **params)
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True, atol=1e-9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_best_level_baseline_flag(self, graph, family):
        optimal = best_level_set(graph, family, "average_degree")
        baseline = best_level_set(graph, family, "average_degree", use_baseline=True)
        assert optimal.k == baseline.k
        assert optimal.score == pytest.approx(baseline.score)
        assert np.array_equal(optimal.vertices, baseline.vertices)
        assert optimal.family == family

    def test_connected_variant_matches_core_problem2(self, graph):
        from repro.core import best_single_kcore

        for metric in ("average_degree", "conductance"):
            generic = best_connected_level_set(graph, "core", metric)
            classic = best_single_kcore(graph, metric)
            assert generic.k == classic.k
            assert generic.score == pytest.approx(classic.score)
            assert np.array_equal(np.sort(generic.vertices), np.sort(classic.vertices))

    @pytest.mark.parametrize("family", ["truss", "weighted"])
    def test_node_scores_match_baseline(self, graph, weights, family):
        # Per-node sums run as one reduceat over the flat forest layout;
        # float charges (weighted) may differ from the baseline in the
        # last bits only.
        fam = get_family(family)
        params = {"edge_weights": weights, "num_levels": 16} if family == "weighted" else {}
        decomposition = fam.decompose(graph, **params)
        for metric in fam.batch_metrics:
            fast = family_node_scores(graph, fam, metric, decomposition=decomposition, **params)
            slow = baseline_family_node_scores(
                graph, fam, metric, decomposition=decomposition, **params
            )
            np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True, atol=1e-9)

    def test_raw_levels_entry_point(self, graph):
        from repro.core import core_decomposition

        coreness = core_decomposition(graph).coreness
        via_levels = level_set_scores(graph, coreness, "average_degree")
        via_family = family_set_scores(graph, "core", "average_degree")
        np.testing.assert_array_equal(via_levels.scores, via_family.scores)

    def test_level_forest_spans_every_vertex(self, graph):
        from repro.core import core_decomposition

        levels = core_decomposition(graph).coreness
        forest = build_level_forest(graph, levels)
        seen = np.concatenate([node.vertices for node in forest.nodes]) if forest.nodes else []
        assert sorted(seen) == list(range(graph.num_vertices))


class TestRegistry:
    def test_builtins_lazily_available(self):
        assert set(available_families()) >= {"core", "truss", "weighted", "ecc"}

    def test_get_family_passthrough_and_errors(self):
        fam = get_family("core")
        assert get_family(fam) is fam
        with pytest.raises(UnknownFamilyError) as exc:
            get_family("bogus")
        assert "bogus" in str(exc.value)
        assert isinstance(exc.value, ReproError)

    def test_register_family_rejects_duplicates_and_garbage(self):
        with pytest.raises(ValueError):
            register_family(get_family("core"))
        with pytest.raises(TypeError):
            register_family("core")  # not an instance

    def test_raw_levels_family_is_not_registered(self):
        assert RAW_LEVELS.name not in available_families()
        with pytest.raises(TypeError):
            RAW_LEVELS.decompose(Graph.empty(0))


class ToyFamily(HierarchyFamily):
    """Degree-capped hierarchy: level(v) = min(degree(v), cap).

    Degree levels nest (removing vertices only lowers degrees is *not*
    required here — nesting only needs ``{v : level(v) >= k}`` to shrink as
    k grows, which holds for any fixed per-vertex array), so the generic
    machinery applies.  Exists purely to prove a family defined outside
    :mod:`repro.engine` plugs into scores, best-k, the index and the CLI.
    """

    name = "toy-degree"
    title = "degree-capped"
    paper_section = "VI-B"
    description = "level(v) = min(degree(v), cap); test-only family"

    def decompose(self, graph, *, backend=None, cap: int = 4, **params):
        return np.minimum(graph.degrees(), cap).astype(np.int64)

    def levels(self, decomposition, **params):
        return decomposition


class TestToyFamilyEndToEnd:
    @pytest.fixture(autouse=True)
    def registered(self):
        if "toy-degree" not in _REGISTRY:
            register_family(ToyFamily())
        yield
        _REGISTRY.pop("toy-degree", None)

    def test_scores_and_best_k(self, graph):
        fast = family_set_scores(graph, "toy-degree", "average_degree")
        slow = baseline_family_set_scores(graph, "toy-degree", "average_degree")
        np.testing.assert_allclose(fast.scores, slow.scores, equal_nan=True)
        best = best_level_set(graph, "toy-degree", "conductance")
        assert best.family == "toy-degree"
        levels = np.minimum(graph.degrees(), 4)
        assert np.array_equal(best.vertices, np.flatnonzero(levels >= best.k))

    def test_params_reach_every_hook(self, graph):
        capped = best_level_set(graph, "toy-degree", "average_degree", cap=2)
        assert capped.scores.max_level <= 2

    def test_index_caches_toy_artifacts(self, graph):
        index = BestKIndex(graph)
        first = index.level_scores("toy-degree", "average_degree")
        assert first is index.level_scores("toy-degree", "ad")
        assert "toy-degree:decompose" in index.built_artifacts()
        assert "toy-degree" in index.built_families()
        fresh = family_set_scores(graph, "toy-degree", "average_degree")
        np.testing.assert_array_equal(first.scores, fresh.scores)
        warm = index.best_level("toy-degree", "clustering_coefficient")
        cold = best_level_set(graph, "toy-degree", "clustering_coefficient")
        assert warm.k == cold.k and warm.score == cold.score

    def test_cli_runs_toy_family(self, graph, tmp_path, capsys):
        from repro.cli import main
        from repro.graph import save_edge_list

        path = tmp_path / "toy.txt"
        save_edge_list(graph, str(path))
        assert main(["set", str(path), "--family", "toy-degree"]) == 0
        assert "best k = " in capsys.readouterr().out

    def test_connected_variant_on_toy_family(self, graph):
        result = best_connected_level_set(graph, "toy-degree", "average_degree")
        vertices = set(result.vertices.tolist())
        assert vertices  # non-empty on a connected-ish random graph
        # Members must form one connected component of the level-k subgraph.
        levels = np.minimum(graph.degrees(), 4)
        assert vertices <= set(np.flatnonzero(levels >= result.k).tolist())


class TestShims:
    def test_historic_entry_points_delegate(self, graph, weights):
        from repro.core import best_kcore_set, kcore_set_scores
        from repro.ecc import best_kecc_set
        from repro.truss import best_ktruss_set
        from repro.weighted import best_s_core_set

        assert best_kcore_set(graph, "ad").family == "core"
        assert best_ktruss_set(graph, "ad").family == "truss"
        assert best_s_core_set(graph, weights, "weighted_average_degree").family == "weighted"
        small, _ = (random_graph(28, 60, seed=4), None)
        assert best_kecc_set(small, "ad").family == "ecc"
        scores = kcore_set_scores(graph, "average_degree")
        assert scores.best_k() == best_kcore_set(graph, "average_degree").k

    def test_ordering_validation(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            level_ordering(g, np.array([1, 2]))  # wrong length
        with pytest.raises(ValueError):
            level_ordering(g, np.array([1, -1, 0]))  # negative level
