"""Tests for :mod:`repro.parallel` — shared memory, pool, prebuild.

Three pillars:

* **Zero-copy** — a worker attaching to a :class:`SharedGraph` reads the
  creator's buffers, not a copy (proved by writing through the segment).
* **Bit-identity** — every parallel configuration (shm, pickle fallback,
  2-worker prebuild, the cross-family sweep) answers exactly like the
  serial in-memory index.
* **Lifecycle** — segments are closed and unlinked on every path:
  context-manager exit, explicit close (idempotent), and the
  :func:`cleanup_shared_memory` sweep the CLI and atexit hook run.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import BestKIndex
from repro.apps import best_sets_by_family
from repro.core import PAPER_METRICS
from repro.graph import Graph
from repro.index.worker import build_family_artifacts
from repro.parallel import (
    GraphHandle,
    SharedGraph,
    cleanup_shared_memory,
    parallel_map,
    resolve_jobs,
    shared_graph,
    shm_available,
)

from conftest import random_graph


@pytest.fixture(scope="module")
def graph() -> Graph:
    return random_graph(140, 700, seed=23)


def _double(x: int) -> int:
    return 2 * x


def _raise_on_negative(x: int) -> int:
    if x < 0:
        raise ValueError("negative")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_invalid_env_is_serial(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with caplog.at_level("WARNING", logger="repro.parallel.pool"):
            assert resolve_jobs() == 1
        assert "REPRO_JOBS" in caplog.text

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_env_clamps_to_serial(self, monkeypatch, caplog, value):
        # Unlike an explicit jobs=0 argument (all cores), a non-positive
        # environment value is treated as a misconfiguration: clamp to
        # serial and say so, never silently fan out.
        monkeypatch.setenv("REPRO_JOBS", value)
        with caplog.at_level("WARNING", logger="repro.parallel.pool"):
            assert resolve_jobs() == 1
        assert "REPRO_JOBS" in caplog.text

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        assert parallel_map(_double, range(6), jobs=1) == [0, 2, 4, 6, 8, 10]

    def test_pooled_matches_serial(self):
        assert parallel_map(_double, range(20), jobs=2) == [2 * i for i in range(20)]

    def test_single_task_runs_inline(self):
        assert parallel_map(_double, [21], jobs=4) == [42]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_raise_on_negative, [1, -1, 2], jobs=2)


class TestSharedGraph:
    def test_handle_attach_is_bit_identical(self, graph):
        with shared_graph(graph) as sg:
            attached, release = sg.handle.attach()
            try:
                assert attached == graph
                assert np.array_equal(attached.indptr, graph.indptr)
                assert np.array_equal(attached.indices, graph.indices)
            finally:
                attached = None
                release()

    def test_attach_is_zero_copy(self, graph):
        if not shm_available():
            pytest.skip("shared memory unavailable")
        from multiprocessing import shared_memory

        sg = shared_graph(graph)
        try:
            assert sg.handle.mode == "shm"
            name, length = sg.handle.segments[1]  # the indices segment
            attached, release = sg.handle.attach()
            # Write through the segment out-of-band: the attached graph must
            # see the change, proving its arrays map the same buffer.
            probe = shared_memory.SharedMemory(name=name)
            try:
                view = np.ndarray((length,), dtype=np.int64, buffer=probe.buf)
                original = int(view[0])
                view[0] = original + 1
                assert int(attached.indices[0]) == original + 1
                view[0] = original
            finally:
                view = None
                probe.close()
            attached = None
            release()
        finally:
            sg.close()

    def test_pickle_fallback_forced_by_env(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not shm_available()
        with shared_graph(graph) as sg:
            assert sg.handle.mode == "pickle"
            attached, release = sg.handle.attach()
            assert attached == graph
            release()

    def test_handle_round_trips_through_pickle(self, graph):
        with shared_graph(graph) as sg:
            clone = pickle.loads(pickle.dumps(sg.handle))
            assert clone.mode == sg.handle.mode
            attached, release = clone.attach()
            assert attached == graph
            attached = None
            release()

    def test_close_is_idempotent(self, graph):
        sg = shared_graph(graph)
        first = sg.close()
        assert sg.close() == 0
        if sg.handle.mode == "shm":
            assert first == 2  # indptr + indices

    def test_cleanup_sweeps_unclosed_exports(self, graph):
        if not shm_available():
            pytest.skip("shared memory unavailable")
        sg = shared_graph(graph)  # deliberately never closed
        names = [name for name, _ in sg.handle.segments]
        assert cleanup_shared_memory() >= 2
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_empty_graph_export(self):
        empty = Graph.empty(3)
        with shared_graph(empty) as sg:
            attached, release = sg.handle.attach()
            assert attached == empty
            attached = None
            release()

    def test_epoch_snapshot_pickle_strips_stamped_digest(self, graph):
        # A VersionedGraph snapshot carries an epoch-stamped digest so
        # store keys never alias across epochs.  That stamp is an
        # epoch-local cache: a worker receiving the snapshot through
        # pickle must see identical arrays but recompute a *content*
        # digest, not inherit the lineage stamp.
        from repro.dynamic import GraphDelta, VersionedGraph

        snapshot = VersionedGraph(graph).apply(
            GraphDelta.from_edges(num_vertices=graph.num_vertices + 1)
        ).graph
        clone = pickle.loads(pickle.dumps(snapshot))
        assert np.array_equal(clone.indptr, snapshot.indptr)
        assert np.array_equal(clone.indices, snapshot.indices)
        assert clone == snapshot
        plain = Graph.from_arrays(snapshot.indptr, snapshot.indices, False)
        assert snapshot.content_digest() != plain.content_digest()
        assert clone.content_digest() == plain.content_digest()


class TestWorker:
    def test_invalid_params_return_empty_payload(self, graph):
        handle = GraphHandle("pickle", arrays=(graph.indptr, graph.indices))
        name, payloads, seconds, spans, counters, _ = build_family_artifacts(
            (handle, "weighted", {}, "numpy", ("decompose",))
        )
        assert name == "weighted" and payloads == {} and seconds == {}
        assert any(s["name"] == "worker:build" for s in spans)

    def test_worker_payload_round_trips(self, graph):
        handle = GraphHandle("pickle", arrays=(graph.indptr, graph.indices))
        _, payloads, seconds, _, _, _ = build_family_artifacts(
            (handle, "core", {}, "numpy", ("decompose", "ordering", "level_totals"))
        )
        assert set(payloads) == {"decompose", "ordering", "level_totals"}
        assert seconds["core:decompose"] >= 0.0
        serial = BestKIndex(graph, jobs=1, store=False)
        assert np.array_equal(
            payloads["decompose"]["coreness"], serial.decomposition.coreness
        )


class TestPrebuildBitIdentity:
    def test_parallel_prebuild_matches_serial(self, graph):
        serial = BestKIndex(graph, jobs=1, store=False)
        serial_sets = serial.best_set_all_metrics(PAPER_METRICS)
        serial_cores = serial.best_core_all_metrics(PAPER_METRICS)

        par = BestKIndex(graph, jobs=2, store=False)
        built = par.prebuild(("core", "truss"), problem2=True)
        assert "decompose" in built["core"] and "triangles" in built["core"]
        par_sets = par.best_set_all_metrics(PAPER_METRICS)
        par_cores = par.best_core_all_metrics(PAPER_METRICS)

        for metric in serial_sets:
            assert serial_sets[metric].k == par_sets[metric].k
            assert np.array_equal(
                serial_sets[metric].scores.scores,
                par_sets[metric].scores.scores,
                equal_nan=True,
            )
        for metric in serial_cores:
            assert (serial_cores[metric].k, serial_cores[metric].node_id) == (
                par_cores[metric].k, par_cores[metric].node_id,
            )
            assert np.array_equal(
                serial_cores[metric].scores.scores,
                par_cores[metric].scores.scores,
                equal_nan=True,
            )

    def test_prebuild_covers_the_batch_queries(self, graph):
        par = BestKIndex(graph, jobs=2, store=False)
        par.prebuild(("core",), metrics=PAPER_METRICS, problem2=True)
        before = par.total_build_seconds()
        par.score_set_all_metrics(PAPER_METRICS)
        par.score_cores_all_metrics(PAPER_METRICS)
        # Scoring after a full prebuild adds only O(n) leftovers, never the
        # heavy passes (which would dominate build_seconds).
        heavy = {"core:triangles", "core:forest", "core:ordering", "core:decompose"}
        assert heavy <= set(par.built_artifacts())
        after_keys = set(par.build_seconds)
        par.score_set_all_metrics(PAPER_METRICS)
        assert set(par.build_seconds) == after_keys
        assert par.total_build_seconds() >= before

    def test_prebuild_in_fallback_mode_matches(self, graph, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SHM", "1")
        serial = BestKIndex(graph, jobs=1, store=False)
        par = BestKIndex(graph, jobs=2, store=False)
        par.prebuild(("core",))
        for metric in PAPER_METRICS:
            assert np.array_equal(
                serial.set_scores(metric).scores,
                par.set_scores(metric).scores,
                equal_nan=True,
            )

    def test_prebuild_skips_unparameterised_weighted(self, graph):
        par = BestKIndex(graph, jobs=2, store=False)
        built = par.prebuild(("core", "weighted"))
        assert "weighted" not in built  # no edge_weights: skipped, not fatal


class TestFamilySweep:
    def test_best_sets_by_family_parallel_matches_serial(self, graph):
        weights = np.random.default_rng(5).lognormal(size=graph.num_edges)
        params = {"weighted": {"edge_weights": weights}}
        serial = best_sets_by_family(
            graph, families=("core", "truss", "weighted"), family_params=params
        )
        parallel = best_sets_by_family(
            graph, families=("core", "truss", "weighted"), family_params=params, jobs=2
        )
        assert set(serial) == set(parallel) == {"core", "truss", "weighted"}
        for name in serial:
            assert serial[name].k == parallel[name].k
            assert serial[name].score == parallel[name].score
            assert np.array_equal(serial[name].vertices, parallel[name].vertices)
