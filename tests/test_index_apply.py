"""``BestKIndex.apply``: scoped invalidation, epoch store, bit-identity.

The acceptance gate: after any delta stream, every family's best level
set and score set served by the maintained index must be bit-identical
to a cold index rebuilt on the final snapshot — and the core peel must
never rerun on the incremental path (monkeypatched builders prove it).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from conftest import figure2_edges
from repro import obs
from repro.core.family import CoreFamily
from repro.dynamic import (
    GraphDelta, VersionedGraph, incremental_core_numbers, stamp_epoch_digest,
)
from repro.engine import get_family
from repro.errors import GraphDeltaError
from repro.graph import Graph
from repro.index import ArtifactStore, BestKIndex
from repro.index.store import FORMAT_VERSION
from repro.truss.family import TrussFamily

METRICS = ("average_degree", "internal_density")


@pytest.fixture()
def figure2():
    return Graph.from_edges(figure2_edges())


def checked_equal(a, b):
    assert type(a) is type(b)
    assert np.array_equal(a, b)


def same_best(a, b):
    """BestLevelResult equality by value (the dataclass holds arrays)."""
    assert a.metric_name == b.metric_name and a.family == b.family
    assert a.k == b.k and a.score == b.score
    checked_equal(a.vertices, b.vertices)
    return True


class TestApplyScopedInvalidation:
    def test_core_is_patched_not_rebuilt(self, figure2, monkeypatch):
        index = BestKIndex(figure2, store=False)
        index.best_set("average_degree")
        index.truss_set_scores("average_degree")
        delta = GraphDelta.from_edges(insert=[(0, 8)])
        new_graph = VersionedGraph(figure2).apply(delta).graph
        expected = BestKIndex(new_graph, store=False).best_set("average_degree")

        def boom(self, graph, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("core peel reran after apply")

        monkeypatch.setattr(CoreFamily, "decompose", boom)
        result = index.apply(delta)
        assert result.patched == ("core",)
        assert result.invalidated == ("truss",)
        assert result.path == "incremental" and result.epoch == 1
        # Core queries are served from the patched decomposition.
        assert same_best(index.best_set("average_degree"), expected)

    def test_rebuild_on_change_family_rebuilds_lazily(self, figure2, monkeypatch):
        index = BestKIndex(figure2, store=False)
        index.truss_set_scores("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        calls = {"n": 0}
        original = TrussFamily.decompose

        def counting(self, graph, **kwargs):
            calls["n"] += 1
            return original(self, graph, **kwargs)

        monkeypatch.setattr(TrussFamily, "decompose", counting)
        index.truss_set_scores("average_degree")
        assert calls["n"] == 1  # rebuilt exactly once, on demand

    def test_noop_apply_retains_everything(self, figure2, monkeypatch):
        index = BestKIndex(figure2, store=False)
        index.best_set("average_degree")
        index.truss_set_scores("average_degree")
        monkeypatch.setattr(
            CoreFamily, "decompose",
            lambda *a, **k: pytest.fail("retained family rebuilt"),
        )
        monkeypatch.setattr(
            TrussFamily, "decompose",
            lambda *a, **k: pytest.fail("retained family rebuilt"),
        )
        result = index.apply(GraphDelta.from_edges(), strict=False)
        assert result.retained == ("core", "truss")
        assert result.patched == () and result.invalidated == ()
        assert result.path == "none" and result.reason == "noop"
        assert result.epoch == 1  # the epoch still advances
        index.best_set("average_degree")
        index.truss_set_scores("average_degree")

    def test_apply_without_core_baseline(self, figure2):
        index = BestKIndex(figure2, store=False)
        result = index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        assert result.path == "none" and result.reason == "no_artifacts"
        assert result.patched == () and result.invalidated == ()
        cold = BestKIndex(result.graph, store=False)
        assert same_best(index.best_set("average_degree"), cold.best_set("average_degree"))

    def test_strict_apply_propagates_delta_errors(self, figure2):
        index = BestKIndex(figure2, store=False)
        with pytest.raises(GraphDeltaError):
            index.apply(GraphDelta.from_edges(insert=[(0, 1)]))
        assert index.epoch == 0

    def test_versioned_graph_input_continues_lineage(self, figure2):
        vg = VersionedGraph(figure2).apply(GraphDelta.from_edges(insert=[(0, 8)]))
        index = BestKIndex(vg, store=False)
        assert index.epoch == 1
        result = index.apply(GraphDelta.from_edges(delete=[(0, 8)]))
        assert result.epoch == 2
        assert index.versioned.lineage == vg.lineage


class TestApplyBitIdentity:
    def test_delta_stream_matches_cold_rebuild(self, figure2):
        rng = random.Random(42)
        index = BestKIndex(figure2, store=False)
        index.best_set("average_degree")
        index.truss_set_scores("average_degree")
        present = set(map(tuple, figure2.edge_array().tolist()))
        n = figure2.num_vertices
        for _ in range(10):
            ins, dele, touched = [], [], set()
            for _ in range(rng.randrange(1, 4)):
                if present and rng.random() < 0.4:
                    edge = rng.choice(sorted(present - touched) or [None])
                    if edge is None:
                        continue
                    present.discard(edge)
                    touched.add(edge)
                    dele.append(edge)
                else:
                    for _ in range(50):
                        u, v = rng.randrange(n), rng.randrange(n)
                        edge = (min(u, v), max(u, v))
                        if u != v and edge not in present and edge not in touched:
                            present.add(edge)
                            touched.add(edge)
                            ins.append(edge)
                            break
            delta = GraphDelta.from_edges(ins, dele)
            if delta.is_empty:
                continue
            result = index.apply(delta)
            cold = BestKIndex(result.graph, store=False)
            for metric in METRICS:
                warm_scores = index.set_scores(metric)
                cold_scores = cold.set_scores(metric)
                checked_equal(warm_scores.scores, cold_scores.scores)
                assert same_best(index.best_set(metric), cold.best_set(metric))
                assert same_best(
                    index.best_level("truss", metric),
                    cold.best_level("truss", metric),
                )
            # Problem 2 agrees too (forest rebuilt from patched coreness).
            assert index.best_core("average_degree").k == cold.best_core("average_degree").k

    def test_patched_decomposition_is_bit_identical(self, figure2):
        index = BestKIndex(figure2, store=False)
        before = index.decomposition
        result = index.apply(GraphDelta.from_edges(insert=[(0, 8)], delete=[(4, 5)]))
        cold = BestKIndex(result.graph, store=False)
        checked_equal(index.decomposition.coreness, cold.decomposition.coreness)
        checked_equal(index.decomposition.order, cold.decomposition.order)
        checked_equal(index.decomposition.shell_start, cold.decomposition.shell_start)
        assert before is not index.decomposition


class TestEpochStore:
    def test_apply_records_epochs(self, figure2, tmp_path):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        index.apply(GraphDelta.from_edges(delete=[(0, 8)]))
        lineage = index.versioned.lineage
        records = store.epoch_records(lineage)
        assert [r["epoch"] for r in records] == [1, 2]
        assert records[-1]["digest"] == index.versioned.digest

    def test_warm_restart_resumes_latest_epoch(self, figure2, tmp_path):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        lineage = index.versioned.lineage

        resumed = store.load_latest_epoch(lineage)
        assert resumed is not None
        assert resumed.epoch == 1 and resumed.digest == index.versioned.digest
        assert resumed.graph == index.graph

    def test_warm_restart_hydrates_without_rebuilding(
        self, figure2, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        expected = index.best_set("average_degree")
        lineage = index.versioned.lineage

        monkeypatch.setattr(
            CoreFamily, "decompose",
            lambda *a, **k: pytest.fail("warm restart rebuilt the peel"),
        )
        resumed = store.load_latest_epoch(lineage)
        warm = BestKIndex(resumed, store=store)
        assert same_best(warm.best_set("average_degree"), expected)

    def test_corrupt_epoch_record_falls_back(self, figure2, tmp_path):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        index.apply(GraphDelta.from_edges(insert=[(0, 6)]))
        lineage = index.versioned.lineage

        # Corrupt the newest record's arrays; its digest check must fail.
        newest = store.epochs_dir(lineage) / "epoch-000002"
        indices = np.load(newest / "indices.npy")
        np.save(newest / "indices.npy", indices[:-2])
        resumed = store.load_latest_epoch(lineage)
        assert resumed is not None and resumed.epoch == 1

    def test_tampered_manifest_digest_is_discarded(self, figure2, tmp_path):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        lineage = index.versioned.lineage
        meta_path = store.epochs_dir(lineage) / "epoch-000001" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["digest"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        assert store.load_latest_epoch(lineage) is None

    def test_reordered_record_arrays_are_discarded(self, figure2, tmp_path):
        # Same arcs, same length, one row out of order: the edge-set token
        # alone would match, so the loader must reject the layout itself.
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        index.apply(GraphDelta.from_edges(insert=[(0, 6)]))
        lineage = index.versioned.lineage
        newest = store.epochs_dir(lineage) / "epoch-000002"
        indices = np.load(newest / "indices.npy")
        start = int(index.graph.indptr[0])
        indices[[start, start + 1]] = indices[[start + 1, start]]
        np.save(newest / "indices.npy", indices)
        resumed = store.load_latest_epoch(lineage)
        assert resumed is not None and resumed.epoch == 1

    @pytest.mark.parametrize("format_number", [2, FORMAT_VERSION])
    def test_format_2_epoch_record_is_never_misread(
        self, figure2, tmp_path, format_number
    ):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        index.apply(GraphDelta.from_edges(insert=[(0, 6)]))
        lineage = index.versioned.lineage
        # Rewrite the newest record as a version-2 writer stamped it: over
        # the whole-CSR SHA-256.  Neither its format number nor, under the
        # current number, its digest may pass; the older record serves.
        newest = store.epochs_dir(lineage) / "epoch-000002"
        meta = json.loads((newest / "meta.json").read_text())
        plain = Graph.from_arrays(index.graph.indptr, index.graph.indices, False)
        meta["format"] = format_number
        meta["digest"] = stamp_epoch_digest(lineage, 2, plain.content_digest())
        (newest / "meta.json").write_text(json.dumps(meta))
        resumed = store.load_latest_epoch(lineage)
        assert resumed is not None and resumed.epoch == 1
        assert not newest.exists()

    def test_epoch_dirs_invisible_to_bundle_listing(self, figure2, tmp_path):
        store = ArtifactStore(tmp_path)
        index = BestKIndex(figure2, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        assert all("epochs-" not in b.key for b in store.bundles())


class TestApplyObservability:
    def test_apply_span_and_maintain_counter(self, figure2):
        index = BestKIndex(figure2, store=False)
        index.best_set("average_degree")
        before = obs.counter("dynamic.maintain", path="incremental", reason="ok")
        index.apply(GraphDelta.from_edges(insert=[(0, 8)]))
        after = obs.counter("dynamic.maintain", path="incremental", reason="ok")
        assert after == before + 1
        spans = obs.find_spans("index:apply")
        assert spans and spans[-1].attrs["path"] == "incremental"
        assert spans[-1].attrs["epoch"] == 1

    def test_apply_result_fields(self, figure2):
        index = BestKIndex(figure2, store=False)
        index.best_set("average_degree")
        result = index.apply(
            GraphDelta.from_edges(insert=[(0, 8)], delete=[(4, 5)])
        )
        assert result.inserted == 1 and result.deleted == 1
        assert result.changed >= 0
        assert result.graph.has_edge(0, 8) and not result.graph.has_edge(4, 5)


class TestIncrementalFlagWiring:
    def test_family_flags(self):
        assert get_family("core").supports_incremental is True
        for name in ("truss", "weighted", "ecc"):
            assert get_family(name).supports_incremental is False

    def test_incremental_core_numbers_reexported(self, figure2):
        import repro

        assert repro.incremental_core_numbers is incremental_core_numbers
        assert repro.GraphDelta is GraphDelta
        assert repro.VersionedGraph is VersionedGraph
