"""Tests for batched subcore repair and the maintenance planner.

Single-edge churn equivalence lives in ``tests/test_dynamic.py`` and
``tests/test_dynamic_incremental.py``; this module covers the
``subcore_repair`` kernel path at scale (forced via ``plan="batched"``
so the cost model cannot route around it), the planner's guard/override
chain, and the native kernel's bit-identical fallback.  The load-bearing
property is the same — after any delta stream, maintained coreness must
equal a cold ``core_decomposition`` of the final snapshot at every
epoch — here at delta sizes up to 10k edges per delta.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import random_graph, small_graph_zoo
from repro import obs
from repro.core import core_decomposition
from repro.dynamic import (
    PLAN_CHOICES,
    GraphDelta,
    VersionedGraph,
    incremental_core_numbers,
    plan_maintenance,
    resolve_plan_override,
)
from repro.dynamic.planner import cost_estimates, delta_work
from repro.kernels import get_backend
from repro.kernels.native_backend import DISABLE_ENV_VAR

BACKENDS = ("numpy", "native")


def edge_set(graph) -> set[tuple[int, int]]:
    return set(map(tuple, graph.edge_array().tolist()))


def random_delta(
    rng: random.Random, present: set[tuple[int, int]], n: int, size: int
) -> GraphDelta:
    """An exactly-``size``-change effective delta, mutating ``present``."""
    pool = sorted(present)
    rng.shuffle(pool)
    ins: list[tuple[int, int]] = []
    dele: set[tuple[int, int]] = set()
    for _ in range(size):
        if pool and rng.random() < 0.45:
            edge = pool.pop()
            present.discard(edge)
            dele.add(edge)
        else:
            for _ in range(200):
                u, v = rng.randrange(n), rng.randrange(n)
                edge = (min(u, v), max(u, v))
                if u != v and edge not in present and edge not in dele:
                    present.add(edge)
                    ins.append(edge)
                    break
    return GraphDelta.from_edges(ins, dele)


def churn_stream(graph, sizes, backend: str, plan: str, seed: int = 11) -> None:
    """Apply one delta per size; assert bit-identity at every epoch."""
    rng = random.Random(seed)
    vg = VersionedGraph(graph)
    core = core_decomposition(graph).coreness
    for size in sizes:
        present = edge_set(vg.graph)
        delta = random_delta(rng, present, max(vg.num_vertices, 4), size)
        new_vg = vg.apply(delta, strict=False)
        result = incremental_core_numbers(
            vg.graph, core, new_vg.applied,
            new_graph=new_vg.graph, backend=backend, plan=plan,
        )
        expected = core_decomposition(new_vg.graph).coreness
        assert np.array_equal(result.coreness, expected), (
            f"size={size} path={result.path} diverged from cold peel"
        )
        vg, core = new_vg, result.coreness


class TestBatchedChurnEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "name,graph", small_graph_zoo(), ids=[n for n, _ in small_graph_zoo()]
    )
    def test_zoo_churn_batched(self, name, graph, backend):
        sizes = (1, 3, 1, 5, 2)  # zoo graphs are tiny; sizes to scale
        churn_stream(graph, sizes, backend, plan="batched")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", (1, 10, 100, 1000))
    def test_random_graph_delta_sizes(self, backend, size):
        graph = random_graph(600, 2400, seed=5)
        churn_stream(graph, (size, size), backend, plan="batched", seed=size)

    def test_ten_thousand_edge_delta(self):
        # The 10k leg runs once on the fastest backend available — the
        # point is that a delta bigger than the graph stays exact, not a
        # per-backend timing sweep (that is bench_dynamic's job).
        graph = random_graph(2000, 6000, seed=5)
        churn_stream(graph, (10_000,), "native", plan="batched")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_delete_cascade_multilevel(self, backend):
        # Two cliques sharing a bridge vertex: deleting the k5's edges in
        # one batch drops coreness by several levels at once — the case
        # the per-edge theorem (±1 per edge) never exhibits per call.
        k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        k4 = [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        graph_edges = k5 + k4
        from repro.graph import Graph

        graph = Graph.from_edges(graph_edges)
        core = core_decomposition(graph).coreness
        delta = GraphDelta.from_edges(delete=k5[:7])
        vg = VersionedGraph(graph).apply(delta)
        result = incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend=backend, plan="batched",
        )
        assert result.path == "batched"
        assert np.array_equal(
            result.coreness, core_decomposition(vg.graph).coreness
        )

    def test_batched_bails_to_rebuild_on_subcore_limit(self):
        graph = random_graph(80, 240, seed=2)
        core = core_decomposition(graph).coreness
        present = edge_set(graph)
        delta = random_delta(random.Random(0), present, 80, 4)
        vg = VersionedGraph(graph).apply(delta, strict=False)
        result = incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend="numpy", plan="batched",
            subcore_limit=1,
        )
        assert result.path == "rebuild" and result.reason == "subcore_limit"
        assert np.array_equal(
            result.coreness, core_decomposition(vg.graph).coreness
        )


class TestPlanner:
    def test_choices_are_closed(self):
        assert PLAN_CHOICES == ("auto", "batched", "rebuild")

    def test_auto_means_cost_model(self):
        assert resolve_plan_override(None) is None
        assert resolve_plan_override("auto") is None
        assert resolve_plan_override(" Batched ") == "batched"

    def test_invalid_explicit_raises(self):
        with pytest.raises(ValueError):
            resolve_plan_override("bogus")

    def test_removed_edge_plan_raises(self):
        # The per-edge python walk is gone; its plan name is not an alias.
        graph = random_graph(60, 150, seed=1)
        core = core_decomposition(graph).coreness
        delta = GraphDelta.from_edges(delete=[tuple(graph.edge_array()[0])])
        vg = VersionedGraph(graph).apply(delta)
        with pytest.raises(ValueError, match="unknown maintenance plan"):
            incremental_core_numbers(
                graph, core, vg.applied, new_graph=vg.graph, plan="edge",
            )

    def test_default_plan_defers_to_cost_model(self):
        graph = random_graph(60, 150, seed=1)
        core = core_decomposition(graph).coreness
        delta = GraphDelta.from_edges(delete=[tuple(graph.edge_array()[0])])
        vg = VersionedGraph(graph).apply(delta)
        before = obs.counter("dynamic.plan", choice="batched", reason="cost_model")
        result = incremental_core_numbers(
            graph, core, vg.applied, new_graph=vg.graph, backend="numpy",
        )
        assert result.path == "batched"
        assert (
            obs.counter("dynamic.plan", choice="batched", reason="cost_model")
            == before + 1
        )

    def test_no_baseline_guard_beats_override(self):
        plan = plan_maintenance(3, 1000, override="batched", has_baseline=False)
        assert plan.choice == "rebuild" and plan.reason == "no_baseline"

    def test_override_skips_large_delta_guard(self):
        plan = plan_maintenance(900, 1000, override="batched")
        assert plan.choice == "batched" and plan.reason == "override"

    def test_large_delta_guard(self):
        plan = plan_maintenance(900, 1000)
        assert plan.choice == "rebuild" and plan.reason == "large_delta"

    def test_cost_model_picks_batched_for_single_change(self):
        plan = plan_maintenance(1, 500_000, backend_name="native")
        assert plan.choice == "batched" and plan.reason == "cost_model"

    def test_cost_model_picks_batched_for_medium_delta(self):
        plan = plan_maintenance(100, 500_000, backend_name="native")
        assert plan.choice == "batched" and plan.reason == "cost_model"

    @pytest.mark.parametrize("size, work, choice", [
        (1, 11, "batched"), (10, 128, "batched"),
        (100, 1_811, "rebuild"), (1000, 18_575, "rebuild"),
    ])
    def test_native_choice_on_the_churn_graph(self, size, work, choice):
        # The e2e churn graph (203,672 edges after the held-out pool) with
        # size inserts of held-out edges plus size deletes; work is the
        # median delta_work of that stream.  Measured there (apply plus
        # five re-queries): batched wins at 1 and 10, and loses 1.3x at
        # 100 and 2.8x at 1000.
        plan = plan_maintenance(2 * size, 203_672, backend_name="native", work=work)
        assert (plan.choice, plan.reason) == (choice, "cost_model")

    def test_delta_work_weighs_inserts_by_their_lower_degree(self):
        degrees = np.array([1, 5, 40, 3])
        insert = np.array([[0, 2], [1, 2], [2, 9]])  # vertex 9 is new
        assert delta_work(insert, 4, degrees) == 4 + 1 + 5 + 1
        assert delta_work(np.empty((0, 2), dtype=np.int64), 3, degrees) == 3

    def test_estimates_cover_every_strategy(self):
        est = cost_estimates(10, 500_000, "numpy")
        assert set(est) == {"batched", "rebuild"}
        assert all(v > 0 for v in est.values())

    def test_plan_counter_emitted(self):
        graph = random_graph(60, 150, seed=1)
        core = core_decomposition(graph).coreness
        delta = GraphDelta.from_edges(delete=[tuple(graph.edge_array()[0])])
        vg = VersionedGraph(graph).apply(delta)
        before = obs.counter("dynamic.plan", choice="batched", reason="override")
        incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend="numpy", plan="batched",
        )
        assert (
            obs.counter("dynamic.plan", choice="batched", reason="override")
            == before + 1
        )

    def test_env_override_routes_maintenance(self):
        # The plan= argument is the one override; no environment variable
        # routes maintenance any more.
        graph = random_graph(60, 150, seed=1)
        core = core_decomposition(graph).coreness
        delta = GraphDelta.from_edges(delete=[tuple(graph.edge_array()[0])])
        vg = VersionedGraph(graph).apply(delta)
        for plan in ("batched", "rebuild"):
            result = incremental_core_numbers(
                graph, core, vg.applied, new_graph=vg.graph, backend="numpy",
                plan=plan,
            )
            assert result.path == plan
            assert np.array_equal(
                result.coreness, core_decomposition(vg.graph).coreness
            )


class TestNativeFallback:
    def test_disabled_native_falls_back_bit_identically(self, monkeypatch):
        graph = random_graph(120, 400, seed=9)
        core = core_decomposition(graph).coreness
        present = edge_set(graph)
        delta = random_delta(random.Random(4), present, 120, 20)
        vg = VersionedGraph(graph).apply(delta, strict=False)
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        before = obs.counter(
            "kernel.native_fallback", kernel="subcore_repair", reason="disabled"
        )
        result = incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend="native", plan="batched",
        )
        assert result.path == "batched"
        assert np.array_equal(
            result.coreness, core_decomposition(vg.graph).coreness
        )
        assert (
            obs.counter(
                "kernel.native_fallback", kernel="subcore_repair", reason="disabled"
            )
            == before + 1
        )

    def test_runtime_fault_after_partial_write_rebuilds(self):
        from repro.kernels.native_backend import KERNEL_RAW, NativeBackend

        backend = NativeBackend()
        if backend._resolve("subcore_repair", count=False) is None:
            pytest.skip("native kernels unavailable (no C compiler)")
        graph = random_graph(120, 400, seed=9)
        core = core_decomposition(graph).coreness
        present = edge_set(graph)
        delta = random_delta(random.Random(4), present, 120, 20)
        vg = VersionedGraph(graph).apply(delta, strict=False)
        want = core_decomposition(vg.graph).coreness
        calls = []

        def boom(n, indptr, indices, active, xptr, xindices, xactive, core, *rest):
            # Scribble over the in-place arrays, then fault: nothing may
            # re-run on them.
            calls.append(n)
            core[:] = 99
            active[:] = 0
            raise RuntimeError("synthetic kernel crash")

        backend._compiled[KERNEL_RAW["subcore_repair"]] = boom
        runtime = dict(kernel="subcore_repair", reason="runtime")
        before = obs.counter("kernel.native_fallback", **runtime)
        result = incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend=backend, plan="batched",
        )
        assert result.path == "rebuild"
        assert np.array_equal(result.coreness, want)
        assert obs.counter("kernel.native_fallback", **runtime) == before + 1
        assert backend._fallen["subcore_repair"] == "runtime"

        # Poisoned: the next delta runs the numpy repair, never the fault.
        result = incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend=backend, plan="batched",
        )
        assert result.path == "batched"
        assert np.array_equal(result.coreness, want)
        assert len(calls) == 1

    def test_runtime_fault_is_labelled_kernel_fault(self):
        from repro.kernels.native_backend import KERNEL_RAW, NativeBackend

        backend = NativeBackend()
        if backend._resolve("subcore_repair", count=False) is None:
            pytest.skip("native kernels unavailable (no C compiler)")
        graph = random_graph(120, 400, seed=9)
        core = core_decomposition(graph).coreness
        delta = random_delta(random.Random(4), edge_set(graph), 120, 20)
        vg = VersionedGraph(graph).apply(delta, strict=False)

        def boom(*args):
            raise RuntimeError("synthetic kernel crash")

        backend._compiled[KERNEL_RAW["subcore_repair"]] = boom
        fault = dict(path="rebuild", reason="kernel_fault")
        limit = dict(path="rebuild", reason="subcore_limit")
        before = obs.counter("dynamic.maintain", **fault)
        before_limit = obs.counter("dynamic.maintain", **limit)
        result = incremental_core_numbers(
            graph, core, vg.applied,
            new_graph=vg.graph, backend=backend, plan="batched",
        )
        assert (result.path, result.reason) == ("rebuild", "kernel_fault")
        assert np.array_equal(result.coreness, core_decomposition(vg.graph).coreness)
        assert obs.counter("dynamic.maintain", **fault) == before + 1
        assert obs.counter("dynamic.maintain", **limit) == before_limit


class TestStdinDelta:
    def test_edges_from_stdin(self, monkeypatch):
        import io
        import sys

        from repro.dynamic import edges_from_file

        monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n# note\n2 3\n"))
        assert edges_from_file("-").tolist() == [[0, 1], [2, 3]]


class TestIndexApplyPlan:
    def test_apply_threads_plan(self):
        from repro.index import BestKIndex

        graph = random_graph(100, 320, seed=6)
        index = BestKIndex(graph, store=False)
        index.family_decomposition("core")
        present = edge_set(graph)
        delta = random_delta(random.Random(2), present, 100, 12)
        result = index.apply(delta, strict=False, plan="batched")
        assert result.path == "batched"
        cold = core_decomposition(index.graph).coreness
        assert np.array_equal(index.decomposition.coreness, cold)

    def test_apply_rejects_removed_edge_plan(self):
        from repro.index import BestKIndex

        graph = random_graph(100, 320, seed=6)
        index = BestKIndex(graph, store=False)
        index.family_decomposition("core")
        delta = random_delta(random.Random(2), edge_set(graph), 100, 3)
        with pytest.raises(ValueError, match="unknown maintenance plan"):
            index.apply(delta, strict=False, plan="edge")
