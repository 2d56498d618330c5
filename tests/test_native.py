"""Tests for the native JIT backend's fallback machinery.

The equivalence of native *answers* with the python/numpy backends lives in
``tests/test_kernels.py`` (the three-backend zoo sweep); this module covers
what makes ``native`` different: per-kernel degradation to numpy, the
``kernel.native_fallback`` accounting, the kernel tables staying in step
with the C provider, and the clean no-compiler degradation path (exercised
in a subprocess whose ``$CC`` and ``PATH`` hold no compiler), and the
default backend's answers when the library cannot be built at all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import obs
from repro.bench.harness import kernel_dispatch_summary
from repro.cli import main
from repro.index import BestKIndex
from repro.core import order_vertices
from repro.kernels import KERNEL_METHODS, _native_cc, _native_impl, get_backend, loops
from repro.kernels.native_backend import (
    DELEGATED_KERNELS,
    DISABLE_ENV_VAR,
    KERNEL_RAW,
    NativeBackend,
    native_runtime_metadata,
)

from conftest import PATHOLOGICAL, random_graph, small_graph_zoo

NATIVE = get_backend("native")
NUMPY = get_backend("numpy")

GRAPH = random_graph(60, 150, seed=3)


def fresh_backend() -> NativeBackend:
    """An uninstrumented instance with its own fallback state.

    The registered singleton shares compiled kernels via the module-level
    provider cache, but ``_fallen`` / poisoning is per instance — tests
    that break kernels must not leak into other tests.
    """
    return NativeBackend()


def has_provider() -> bool:
    return fresh_backend().provider_name() is not None


needs_provider = pytest.mark.skipif(
    not has_provider(), reason="native kernels unavailable (no C compiler)"
)


def fallback_count(kernel: str, reason: str) -> float:
    return obs.counter("kernel.native_fallback", kernel=kernel, reason=reason)


class TestDisableSwitch:
    def test_disabled_results_identical(self, monkeypatch):
        expected = NUMPY.peel_coreness(GRAPH)
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        disabled = NATIVE.peel_coreness(GRAPH)
        monkeypatch.delenv(DISABLE_ENV_VAR)
        enabled = NATIVE.peel_coreness(GRAPH)
        assert np.array_equal(disabled, expected)
        assert np.array_equal(enabled, expected)

    def test_disabled_dispatch_counts_reason(self, monkeypatch):
        before = fallback_count("peel_coreness", "disabled")
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        NATIVE.peel_coreness(GRAPH)
        NATIVE.peel_coreness(GRAPH)
        assert fallback_count("peel_coreness", "disabled") == before + 2

    def test_disable_is_dynamic_not_sticky(self, monkeypatch):
        backend = fresh_backend()
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        assert backend._resolve("peel_coreness", count=False) is None
        monkeypatch.delenv(DISABLE_ENV_VAR)
        # Not recorded as a permanent fallback: the kernel resolves again.
        assert "peel_coreness" not in backend._fallen

    def test_disabled_is_the_reported_reason(self, monkeypatch, capsys):
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        status = fresh_backend().kernel_status()
        for kernel in KERNEL_RAW:
            assert status[kernel] == {"mode": "fallback", "reason": "disabled"}
        kernels = native_runtime_metadata(resolve=True)["kernels"]
        assert {kernels[k] for k in KERNEL_RAW} == {"fallback:disabled"}
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy (fallback: disabled)" in out
        assert "runs numpy instead: disabled" in out
        assert main(["backends", "--check", "native"]) == 1
        assert "fall back to numpy (disabled)" in capsys.readouterr().err


class TestRuntimePoisoning:
    @needs_provider
    def test_broken_kernel_falls_back_bit_identically(self):
        backend = fresh_backend()
        expected = NUMPY.peel_coreness(GRAPH)
        assert backend._resolve("peel_coreness", count=False) is not None

        def boom(*args):
            raise RuntimeError("synthetic kernel crash")

        backend._compiled[KERNEL_RAW["peel_coreness"]] = boom
        before = fallback_count("peel_coreness", "runtime")
        assert np.array_equal(backend.peel_coreness(GRAPH), expected)
        assert fallback_count("peel_coreness", "runtime") == before + 1

    @needs_provider
    def test_poisoned_kernel_stays_on_numpy(self):
        backend = fresh_backend()

        def boom(*args):
            raise RuntimeError("synthetic kernel crash")

        backend._compiled[KERNEL_RAW["peel_coreness"]] = boom
        backend.peel_coreness(GRAPH)
        assert backend._fallen["peel_coreness"] == "runtime"
        before = fallback_count("peel_coreness", "runtime")
        np.testing.assert_array_equal(
            backend.peel_coreness(GRAPH), NUMPY.peel_coreness(GRAPH)
        )
        assert fallback_count("peel_coreness", "runtime") == before + 1
        # Other kernels sharing nothing with the poisoned one still resolve.
        assert backend.kernel_status()["hindex_fixpoint"]["mode"] in ("native", "fallback")

    @needs_provider
    def test_status_reports_native_kernels(self):
        status = fresh_backend().kernel_status()
        for kernel in KERNEL_RAW:
            assert status[kernel]["mode"] == "native"
        for kernel in DELEGATED_KERNELS:
            assert status[kernel]["mode"] == "delegated"


class TestDelegatedKernels:
    """Delegated kernels are numpy by design: inherited, and never counted
    on ``kernel.native_fallback`` (which records degradations only)."""

    def test_delegated_counts_and_matches_numpy(self):
        before = fallback_count("count_triangles", "delegated")
        assert NATIVE.count_triangles(GRAPH) == NUMPY.count_triangles(GRAPH)
        assert fallback_count("count_triangles", "delegated") == before == 0

    def test_truss_peel_counts_and_matches_numpy(self):
        assert "truss_peel" in DELEGATED_KERNELS
        edges = GRAPH.edge_array()
        before = fallback_count("truss_peel", "delegated")
        assert np.array_equal(
            NATIVE.truss_peel(GRAPH, edges), NUMPY.truss_peel(GRAPH, edges)
        )
        assert fallback_count("truss_peel", "delegated") == before == 0
        assert fresh_backend().kernel_status()["truss_peel"]["mode"] == "delegated"

    def test_vertex_strengths_delegates(self):
        assert "vertex_strengths" in DELEGATED_KERNELS
        arcs = np.linspace(0.5, 2.0, GRAPH.indices.shape[0])
        before = fallback_count("vertex_strengths", "delegated")
        assert np.array_equal(
            NATIVE.vertex_strengths(GRAPH, arcs), NUMPY.vertex_strengths(GRAPH, arcs)
        )
        assert fallback_count("vertex_strengths", "delegated") == before == 0
        assert fresh_backend().kernel_status()["vertex_strengths"]["mode"] == "delegated"

    def test_connected_components_delegates(self):
        active = np.ones(GRAPH.num_vertices, dtype=bool)
        labels_nat, count_nat = NATIVE.connected_components(GRAPH, active)
        labels_np, count_np = NUMPY.connected_components(GRAPH, active)
        assert count_nat == count_np
        assert np.array_equal(labels_nat, labels_np)


class TestRuntimeMetadata:
    def test_cheap_form_reports_availability(self):
        info = native_runtime_metadata()
        assert set(info) == {"disabled", "cc_compiler"}
        assert info["disabled"] is False

    @needs_provider
    def test_resolved_form_reports_kernels(self):
        info = native_runtime_metadata(resolve=True)
        assert info["provider"] is not None
        assert info["kernels"]["count_triangles"] == "delegated"
        assert info["kernels"]["peel_coreness"] in ("native",) or info[
            "kernels"
        ]["peel_coreness"].startswith("fallback:")

    def test_index_keys_by_plain_backend_name(self):
        # Fallback is bit-identical, so artifact-store keys never fragment.
        assert BestKIndex(GRAPH, backend="native", store=False).backend_name == "native"


def _repair_inputs(graph):
    """Raw ``subcore_repair`` arguments for a delta on ``graph``: delete
    every third edge, insert up to ten absent pairs (extra CSR inactive)."""
    n = graph.num_vertices
    edges = graph.edge_array()
    present = set(map(tuple, edges.tolist()))
    absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    delete = edges[::3].reshape(-1, 2)
    insert = np.array(absent[::3][:10], dtype=np.int64).reshape(-1, 2)
    ends = np.concatenate([insert[:, 0], insert[:, 1]])
    order = np.lexsort((np.concatenate([insert[:, 1], insert[:, 0]]), ends))
    xindices = np.concatenate([insert[:, 1], insert[:, 0]])[order]
    xptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=xptr[1:])
    ops = np.concatenate([delete, insert])
    kinds = np.repeat(np.array([0, 1], dtype=np.int64), [len(delete), len(insert)])
    core = NUMPY.peel_coreness(graph)
    return (graph.indptr, graph.indices, np.ones(len(graph.indices), dtype=np.uint8),
            xptr, xindices, np.zeros(len(xindices), dtype=np.uint8), core,
            ops[:, 0].copy(), ops[:, 1].copy(), kinds, np.int64(n))


#: Kernel method -> its inputs on one zoo graph.  Every loop kernel needs
#: an entry (the table test checks), so a new compiled kernel is compared
#: against its twin from the day it lands.
ZOO_INPUTS = {
    "peel_coreness": lambda g: (g,),
    "peel_exact": lambda g: (g,),
    "hindex_fixpoint": lambda g: (g, g.degrees(), np.arange(g.num_vertices)),
    "triangle_charges": lambda g: (order_vertices(g),),
    "triplet_charges": lambda g: (order_vertices(g),),
    "subcore_repair": _repair_inputs,
}

TWIN_ZOO = small_graph_zoo() + list(PATHOLOGICAL.items()) + [
    (f"random-{seed}", random_graph(30 + 20 * seed, 60 + 90 * seed, seed)) for seed in range(3)
]


def _arrays_of(value) -> list:
    """Every ndarray in a kernel result or argument tuple, in order."""
    items = value if isinstance(value, tuple) else (value,)
    return [np.asarray(item) for item in items if isinstance(item, (np.ndarray, np.integer))]


class TestKernelTables:
    def test_tables_cover_the_interface_and_the_c_unit(self):
        assert set(KERNEL_METHODS) == set(KERNEL_RAW) | set(DELEGATED_KERNELS)
        assert set(ZOO_INPUTS) == set(KERNEL_RAW) == set(loops.LOOP_KERNELS)
        raws = {symbol.removeprefix("repro_") for symbol in _native_cc._SIGNATURES}
        assert raws == set(KERNEL_RAW.values())
        for raw in raws:
            # The twin takes the C function's arguments, in its order.
            twin = getattr(_native_impl, raw)
            assert twin.__code__.co_argcount == len(_native_cc._SIGNATURES[f"repro_{raw}"]), raw

    @needs_provider
    @pytest.mark.parametrize("graph", [g for _, g in TWIN_ZOO], ids=[name for name, _ in TWIN_ZOO])
    def test_uncompiled_twin_equals_compiled(self, graph):
        """Each loop kernel, through the one adapter, on the twin and on the
        C: equal results and equal in-place writes (``subcore_repair``'s
        core/active/xactive), the peel's removal order included."""
        backend = fresh_backend()
        for kernel, (raw, adapter) in loops.LOOP_KERNELS.items():
            compiled = backend._resolve(kernel, count=False)
            assert compiled is not None, kernel
            inputs = ZOO_INPUTS[kernel](graph)
            twin_args = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in inputs)
            c_args = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in inputs)
            want = adapter(getattr(_native_impl, raw), *twin_args)
            got = adapter(compiled, *c_args)
            for x, y in zip(_arrays_of(want) + _arrays_of(twin_args),
                            _arrays_of(got) + _arrays_of(c_args), strict=True):
                assert np.array_equal(x, y), kernel


class TestDispatchSummary:
    def test_counts_fold_per_backend_and_reason(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV_VAR, "1")
        NATIVE.peel_coreness(GRAPH)
        summary = kernel_dispatch_summary()
        assert summary["dispatch"]["native"]["peel_coreness"] >= 1
        assert summary["native_fallback"]["peel_coreness"]["disabled"] >= 1


SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro import obs
    from repro.core import core_decomposition
    from repro.kernels import get_backend

    backend = get_backend()          # resolved from REPRO_BACKEND
    assert backend.name == "native", backend.name
    got = core_decomposition(backend=backend, graph=_graph()).coreness
    want = core_decomposition(backend="numpy", graph=_graph()).coreness
    assert np.array_equal(got, want)
    print("COERCED-OK", int(got.sum()))
    print("IMPORT-FALLBACKS", int(obs.counter(
        "kernel.native_fallback", kernel="peel_coreness", reason="import")))
    """
)


def _no_compiler_env(tmp_path) -> dict:
    """Env where ``$CC`` names no file and ``PATH`` is one empty directory."""
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    env["PATH"] = str(empty)
    env["CC"] = "/nonexistent"
    env["REPRO_BACKEND"] = "native"
    # A library built earlier would serve without a compiler.
    env[_native_cc.CACHE_ENV_VAR] = str(tmp_path / "empty-native-cache")
    env.pop(DISABLE_ENV_VAR, None)
    return env


class TestNoProviderDegradation:
    def test_missing_compiler_degrades_to_numpy_with_warning(self, tmp_path):
        script = (
            "def _graph():\n"
            "    from repro.generators import powerlaw_chung_lu\n"
            "    return powerlaw_chung_lu(300, 4.0, 2.3, seed=5)\n"
            + SUBPROCESS_SCRIPT
        )
        proc = subprocess.run(
            [os.path.abspath(sys.executable), "-c", script],
            env=_no_compiler_env(tmp_path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "COERCED-OK" in proc.stdout
        assert "IMPORT-FALLBACKS 1" in proc.stdout
        # The one-time degradation warning names the missing compiler.
        assert "native backend unavailable" in proc.stderr
        assert "no C compiler found" in proc.stderr


#: Answers of every loop kernel's consumer on the zoo, as JSON-ready
#: values: coreness, Problems 1 and 2 for the paper metrics (triangle and
#: triplet charges), and a batched repair (subcore_repair).  Run in this
#: process on native and in a subprocess on the default backend.
ZOO_ANSWERS_SCRIPT = textwrap.dedent(
    """
    import numpy as np
    from conftest import PATHOLOGICAL, random_graph, small_graph_zoo
    from repro.core import PAPER_METRICS, core_decomposition
    from repro.dynamic import GraphDelta, incremental_core_numbers
    from repro.errors import ReproError
    from repro.index import BestKIndex

    def zoo_answers(backend=None):
        graphs = small_graph_zoo() + list(PATHOLOGICAL.items()) + [
            (f"random-{seed}", random_graph(40 + 30 * seed, 120 + 150 * seed, seed))
            for seed in range(3)
        ]
        out = {}
        for name, g in graphs:
            core = core_decomposition(g, backend=backend).coreness
            index = BestKIndex(g, backend=backend, store=False)
            answers = [core.tolist()]
            for metric in PAPER_METRICS:
                for query in (lambda: index.best_level("core", metric),
                              lambda: index.best_core(metric)):
                    try:
                        r = query()
                    except ReproError as exc:  # the empty graph has no answer
                        answers.append(type(exc).__name__)
                        continue
                    answers.append([r.k, r.score.hex(), r.node_id, r.vertices.tolist()])
            edges = g.edge_array()
            if len(edges) >= 2:
                delta = GraphDelta.from_edges([], edges[::2])
                repaired = incremental_core_numbers(g, core, delta, backend=backend, plan="batched")
                answers.append([repaired.path, repaired.coreness.tolist()])
            out[name] = answers
        return out
    """
)


def _zoo_answers_on_native() -> dict:
    namespace: dict = {}
    exec(ZOO_ANSWERS_SCRIPT, namespace)
    return json.loads(json.dumps(namespace["zoo_answers"]("native")))


def _unbuildable_env(tmp_path, failure: str) -> dict:
    """Env, default backend, where the C library cannot be had: ``$CC``
    exits 1 (``compile``) or no compiler is on ``PATH`` (``import``)."""
    env = _no_compiler_env(tmp_path)
    env.pop("REPRO_BACKEND")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] += os.pathsep + tests_dir
    if failure == "compile":
        env["CC"] = "/bin/false"
    return env


class TestUnbuildableLibrary:
    """The default backend when the C unit cannot be built: numpy answers,
    bit-identical to native, each fallback counted with its reason."""

    @needs_provider
    @pytest.mark.parametrize("failure", ["compile", "import"])
    def test_default_answers_like_native_and_counts_the_reason(self, tmp_path, failure):
        script = ZOO_ANSWERS_SCRIPT + textwrap.dedent(
            """
            import json
            from repro import obs
            from repro.kernels import get_backend
            print(json.dumps({
                "backend": get_backend().name,
                "answers": zoo_answers(),
                "fallbacks": {
                    key: value for key, value in obs.counters().items()
                    if key.startswith("kernel.native_fallback")
                },
            }))
            """
        )
        proc = subprocess.run(
            [os.path.abspath(sys.executable), "-c", script],
            env=_unbuildable_env(tmp_path, failure),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["backend"] == "native"
        assert out["answers"] == _zoo_answers_on_native()
        reasons = {obs.parse_counter_key(key)[1] for key in out["fallbacks"]}
        assert {dict(labels)["reason"] for labels in reasons} == {failure}
        kernels = {dict(labels)["kernel"] for labels in reasons}
        assert {"peel_coreness", "triangle_charges", "triplet_charges",
                "subcore_repair"} <= kernels
        assert not list((tmp_path / "empty-native-cache").glob("*.so"))

    def test_import_with_a_failing_compiler_does_not_raise(self, tmp_path):
        proc = subprocess.run(
            [os.path.abspath(sys.executable), "-c",
             "import repro, repro.kernels; print(repro.kernels.DEFAULT_BACKEND)"],
            env=_unbuildable_env(tmp_path, "compile"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "native"
        assert "Traceback" not in proc.stderr
