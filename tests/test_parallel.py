"""Tests for the process fan-out — pool, graph handoff, prebuild.

Two pillars:

* **Bit-identity** — every parallel configuration (2-worker prebuild,
  a pool that cannot start, the cross-family sweep) answers exactly
  like the serial in-memory index.
* **Degradation** — a pool that fails to start or dies mid-round
  degrades to the serial path with the same answer and a counted
  ``parallel.map{degraded=...}`` reason, never an exception.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import BestKIndex, obs
from repro.apps import best_sets_by_family
from repro.core import PAPER_METRICS
from repro.graph import Graph
from repro.index import worker
from repro.index.worker import build_family_artifacts, parallel_map

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


_PARENT_PID = os.getpid()


def _die_in_worker(x: int) -> int:
    # Forked workers inherit _PARENT_PID, so only a pool worker exits.
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return 2 * x


class TestResolveJobs:
    def test_default_is_serial(self, graph):
        assert BestKIndex(graph, store=False).jobs == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_nonpositive_jobs_raise(self, graph, jobs):
        with pytest.raises(ValueError):
            BestKIndex(graph, jobs=jobs, store=False)
        with pytest.raises(ValueError):
            BestKIndex(graph, store=False).prebuild(("core",), jobs=jobs)


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

    def test_dead_worker_degrades_to_serial(self):
        degraded = dict(mode="serial", degraded="pool_failure")
        before = obs.counter("parallel.map", **degraded)
        assert parallel_map(_die_in_worker, range(6), jobs=2) == [2 * i for i in range(6)]
        assert obs.counter("parallel.map", **degraded) == before + 1


class TestSharedGraph:
    """The graph a pool worker shares with its parent: one pickle handoff."""

    def test_handle_attach_is_bit_identical(self, graph):
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert np.array_equal(clone.indptr, graph.indptr)
        assert np.array_equal(clone.indices, graph.indices)

    def test_handle_round_trips_through_pickle(self, graph):
        task = (graph, "core", {}, "numpy", ("decompose",))
        _, payloads, _, _, _, _ = build_family_artifacts(pickle.loads(pickle.dumps(task)))
        _, direct, _, _, _, _ = build_family_artifacts(task)
        assert np.array_equal(
            payloads["decompose"]["coreness"], direct["decompose"]["coreness"]
        )

    def test_empty_graph_export(self):
        empty = Graph.empty(3)
        clone = pickle.loads(pickle.dumps(empty))
        assert clone == empty
        _, payloads, _, _, _, _ = build_family_artifacts(
            (clone, "core", {}, "numpy", ("decompose",))
        )
        assert np.array_equal(payloads["decompose"]["coreness"], np.zeros(3))

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
        name, payloads, seconds, spans, counters, _ = build_family_artifacts(
            (graph, "weighted", {}, "numpy", ("decompose",))
        )
        assert name == "weighted" and payloads == {} and seconds == {}
        assert any(s["name"] == "worker:build" for s in spans)

    def test_worker_payload_round_trips(self, graph):
        _, payloads, seconds, _, _, _ = build_family_artifacts(
            (graph, "core", {}, "numpy", ("decompose", "ordering", "level_totals"))
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
        def no_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(worker, "ProcessPoolExecutor", no_pool)
        degraded = dict(mode="serial", degraded="pool_start_failure")
        before = obs.counter("parallel.map", **degraded)
        serial = BestKIndex(graph, jobs=1, store=False)
        par = BestKIndex(graph, jobs=2, store=False)
        par.prebuild(("core",))
        assert obs.counter("parallel.map", **degraded) == before + 1
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
