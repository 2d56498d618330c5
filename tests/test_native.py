"""Tests for the native JIT backend's fallback machinery.

The equivalence of native *answers* with the python/numpy backends lives in
``tests/test_kernels.py`` (the three-backend zoo sweep); this module covers
what makes ``native`` different: per-kernel degradation to numpy, the
``kernel.native_fallback`` accounting, provider selection, and the clean
no-provider degradation path (exercised in a subprocess with a sabotaged
``numba`` and the ``cc`` provider ruled out).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import obs
from repro.bench.harness import kernel_dispatch_summary
from repro.kernels import get_backend
from repro.kernels.native_backend import (
    DELEGATED_KERNELS,
    DISABLE_ENV_VAR,
    KERNEL_RAW,
    NativeBackend,
    PROVIDER_ENV_VAR,
    native_runtime_metadata,
)

from conftest import random_graph

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
    not has_provider(), reason="no JIT provider (numba or C toolchain) available"
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
    def test_delegated_counts_and_matches_numpy(self):
        before = fallback_count("count_triangles", "delegated")
        assert NATIVE.count_triangles(GRAPH) == NUMPY.count_triangles(GRAPH)
        assert fallback_count("count_triangles", "delegated") == before + 1

    def test_truss_peel_counts_and_matches_numpy(self):
        assert "truss_peel" in DELEGATED_KERNELS
        edges = GRAPH.edge_array()
        before = fallback_count("truss_peel", "delegated")
        assert np.array_equal(
            NATIVE.truss_peel(GRAPH, edges), NUMPY.truss_peel(GRAPH, edges)
        )
        assert fallback_count("truss_peel", "delegated") == before + 1
        assert fresh_backend().kernel_status()["truss_peel"]["mode"] == "delegated"

    def test_connected_components_delegates(self):
        active = np.ones(GRAPH.num_vertices, dtype=bool)
        labels_nat, count_nat = NATIVE.connected_components(GRAPH, active)
        labels_np, count_np = NUMPY.connected_components(GRAPH, active)
        assert count_nat == count_np
        assert np.array_equal(labels_nat, labels_np)


class TestRuntimeMetadata:
    def test_cheap_form_reports_availability(self):
        info = native_runtime_metadata()
        assert set(info) >= {"numba_version", "disabled", "provider_preference", "cc_compiler"}
        assert info["disabled"] is False

    @needs_provider
    def test_resolved_form_reports_kernels(self):
        info = native_runtime_metadata(resolve=True)
        assert info["provider"] is not None
        assert info["kernels"]["count_triangles"] == "delegated"
        assert info["kernels"]["peel_coreness"] in ("native",) or info[
            "kernels"
        ]["peel_coreness"].startswith("fallback:")

    def test_store_token_is_plain_name(self):
        # Fallback is bit-identical, so artifact-store keys never fragment.
        assert NATIVE.store_token() == "native"


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
    from repro.core import core_decomposition
    from repro.kernels import get_backend

    backend = get_backend()          # resolved from REPRO_BACKEND
    assert backend.name == "native", backend.name
    got = core_decomposition(backend=backend, graph=_graph()).coreness
    want = core_decomposition(backend="numpy", graph=_graph()).coreness
    assert np.array_equal(got, want)
    print("COERCED-OK", int(got.sum()))
    """
)


def _subprocess_env(tmp_path) -> dict:
    """Env where ``import numba`` fails and the forced provider is numba."""
    shadow = tmp_path / "shadow"
    shadow.mkdir()
    (shadow / "numba.py").write_text(
        "raise ImportError('numba deliberately unavailable for this test')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(shadow), os.path.abspath(src)])
    env["REPRO_BACKEND"] = "native"
    env[PROVIDER_ENV_VAR] = "numba"
    env.pop(DISABLE_ENV_VAR, None)
    return env


class TestNoProviderDegradation:
    def test_missing_numba_degrades_to_numpy_with_warning(self, tmp_path):
        script = (
            "def _graph():\n"
            "    from repro.generators import powerlaw_chung_lu\n"
            "    return powerlaw_chung_lu(300, 4.0, 2.3, seed=5)\n"
            + SUBPROCESS_SCRIPT
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(tmp_path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "COERCED-OK" in proc.stdout
        # The one-time degradation warning lands on stderr via logging.
        assert "native backend unavailable" in proc.stderr
        assert "pip install repro[native]" in proc.stderr
