"""The native-speed kernel backend (``REPRO_BACKEND=native``).

Compiled implementations of the hot kernels — exact O(m) bucket peeling,
the h-index fixpoint round, Algorithm 3's merge-intersection triangle
charges and one-pass triplet charges, and the batched subcore repair — behind a **per-kernel soft fallback**: anything
that cannot run native (no C compiler, a compile failure, a runtime error)
transparently delegates to the numpy implementation of exactly that
kernel, and the degradation is counted per reason on the
``kernel.native_fallback{kernel=,reason=}`` counter so ``bestk stats``
shows what actually ran native.

The compiled code is one C translation unit, built once with the system
compiler and bound through ctypes (:mod:`repro.kernels._native_cc`).
``REPRO_NATIVE_DISABLE=1`` forces every kernel to the numpy fallback
(useful for bit-identity A/B checks); it is consulted dynamically, so
flipping it in a test takes effect on the registered singleton.

Fallback reasons (the ``reason`` label):

* ``disabled`` — ``REPRO_NATIVE_DISABLE`` is set;
* ``import`` — no C compiler was found;
* ``compile`` — the C library failed to build or a kernel failed its
  warm-up call;
* ``runtime`` — the compiled kernel raised at call time (poisoned from
  then on);
* ``delegated`` — the kernel has no native implementation by design
  (``count_triangles`` and ``connected_components`` — already
  memory-bandwidth-bound under numpy; ``vertex_strengths`` — one
  ``np.add.reduceat`` per weighted peel, a few ms against a peel of over a
  second; ``truss_peel`` — a whole-frontier array pass under numpy, with no
  compiled form yet).

All answers are bit-identical to the other backends — each C function
must equal a named python function, and the equivalence suite
(``tests/test_kernels.py``, ``tests/test_native.py``) enforces it — so
artifact-store bundle keys and index identity tokens treat ``native`` as
just another backend name.

Layering: this module (and its provider modules) imports nothing from
``repro`` outside ``repro.kernels`` except the :mod:`repro.obs` leaf for
the fallback counter; ``scripts/check_imports.py`` enforces it.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .. import obs
from . import _native_cc
from .base import KernelBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "DISABLE_ENV_VAR",
    "NativeBackend",
    "native_runtime_metadata",
]

#: Set to any non-empty value to force every kernel to the numpy fallback.
DISABLE_ENV_VAR = "REPRO_NATIVE_DISABLE"

#: Kernel-method name -> C provider kernel implementing it.
KERNEL_RAW = {
    "peel_coreness": "peel_exact",
    "peel_exact": "peel_exact",
    "hindex_fixpoint": "hindex_fixpoint",
    "triangle_charges": "triangle_charges",
    "triplet_charges": "triplet_charges",
    "subcore_repair": "subcore_repair",
}

#: Kernels that intentionally stay on the numpy implementation: their numpy
#: forms are already whole-array passes with no scalar inner loop left.
DELEGATED_KERNELS = (
    "count_triangles", "truss_peel", "connected_components", "vertex_strengths",
)

_log = logging.getLogger("repro.kernels.native")

#: The loaded C provider, or why it could not load (``"import: ..."`` /
#: ``"compile: ..."``).  Module-level so every NativeBackend instance
#: shares one dlopen.
_PROVIDER: object = None

_WARNED = False


def _disabled() -> bool:
    return bool(os.environ.get(DISABLE_ENV_VAR, "").strip())


def _get_provider():
    """``(provider, None)``, or ``(None, detail)`` when it cannot load."""
    global _PROVIDER
    if _PROVIDER is None:
        if _native_cc.compiler_path() is None:
            _PROVIDER = "import: no C compiler found (checked $CC, cc, gcc, clang)"
        else:
            try:
                _PROVIDER = _native_cc.load_provider()
            except Exception as exc:
                _PROVIDER = f"compile: {exc}"
    if isinstance(_PROVIDER, str):
        return None, _PROVIDER
    return _PROVIDER, None


#: Tiny warm-up graph (a triangle plus a pendant edge) used to exercise
#: every kernel at resolve time, so a broken build is classified as
#: ``compile`` rather than surfacing mid-query as ``runtime``.
_WARM_INDPTR = np.array([0, 3, 5, 7, 8], dtype=np.int64)
_WARM_INDICES = np.array([1, 2, 3, 0, 2, 0, 1, 0], dtype=np.int64)

_WARMUP_ARGS = {
    "peel_exact": lambda: (_WARM_INDPTR, _WARM_INDICES,
                           np.diff(_WARM_INDPTR).astype(np.int64)),
    "hindex_fixpoint": lambda: (_WARM_INDPTR, _WARM_INDICES,
                                np.diff(_WARM_INDPTR).astype(np.int64),
                                np.arange(4, dtype=np.int64)),
    "triangle_charges": lambda: (_WARM_INDPTR, _WARM_INDICES,
                                 np.arange(8, dtype=np.int64),
                                 np.zeros(4, dtype=np.int64)),
    "triplet_charges": lambda: (_WARM_INDPTR, _WARM_INDICES,
                                np.zeros(4, dtype=np.int64)),
    # Delete the pendant edge (0,3), then insert (1,3) through the extra
    # CSR — exercises both phases of the batched repair.
    "subcore_repair": lambda: (_WARM_INDPTR, _WARM_INDICES,
                               np.ones(8, dtype=np.uint8),
                               np.array([0, 0, 1, 1, 2], dtype=np.int64),
                               np.array([3, 1], dtype=np.int64),
                               np.zeros(2, dtype=np.uint8),
                               np.array([2, 2, 2, 1], dtype=np.int64),
                               np.array([0, 1], dtype=np.int64),
                               np.array([3, 3], dtype=np.int64),
                               np.array([0, 1], dtype=np.int64),
                               np.int64(16)),
}


def _i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


class NativeBackend(KernelBackend):
    """Compiled hot kernels with transparent per-kernel numpy fallback."""

    name = "native"

    def __init__(self) -> None:
        self._numpy = NumpyBackend()
        #: raw kernel -> compiled callable (or None when fallen back).
        self._compiled: dict[str, object] = {}
        #: kernel-method -> fallback reason (missing key = runs native).
        self._fallen: dict[str, str] = {}

    # -- provider / status ------------------------------------------------
    def provider_name(self) -> str | None:
        provider, _ = _get_provider()
        return None if provider is None else provider.name

    def jit_cache_state(self) -> str | None:
        provider, _ = _get_provider()
        return None if provider is None else provider.cache_state

    def kernel_status(self) -> dict[str, dict]:
        """Per-kernel ``{"mode": ..., "reason": ...}`` map (loads the C library).

        ``mode`` is ``native`` (compiled code runs), ``fallback`` (numpy
        runs, ``reason`` says why) or ``delegated`` (numpy by design).
        """
        status: dict[str, dict] = {}
        for kernel in KERNEL_RAW:
            if self._resolve(kernel, count=False) is not None:
                status[kernel] = {"mode": "native", "reason": None}
            else:
                status[kernel] = {"mode": "fallback", "reason": self._fallback_reason(kernel)}
        for kernel in DELEGATED_KERNELS:
            status[kernel] = {"mode": "delegated", "reason": "delegated"}
        return status

    # -- dispatch machinery -----------------------------------------------
    def _fallback_reason(self, kernel: str) -> str:
        """Why ``kernel`` runs on numpy.  ``disabled`` is re-read per call
        so the env var can be flipped at runtime; the rest is sticky."""
        return "disabled" if _disabled() else self._fallen[kernel]

    def _resolve(self, kernel: str, *, count: bool = True):
        """The compiled raw kernel behind ``kernel``, or ``None`` (fallback).

        Counts one ``kernel.native_fallback`` per dispatch that lands on
        numpy, labelled with :meth:`_fallback_reason`.
        """
        fn = None
        if not _disabled() and kernel not in self._fallen:
            raw = KERNEL_RAW[kernel]
            # _compile records the reason for every kernel sharing raw.
            fn = self._compiled.get(raw) or self._compile(raw)
        if fn is None and count:
            obs.add("kernel.native_fallback", kernel=kernel,
                    reason=self._fallback_reason(kernel))
        return fn

    def _compile(self, raw: str):
        provider, detail = _get_provider()
        global _WARNED
        if provider is None:
            self._mark_fallen(raw, detail.split(":", 1)[0])
            if not _WARNED:
                _WARNED = True
                _log.warning(
                    "native backend unavailable (%s); kernels fall back to the "
                    "numpy backend (bit-identical, slower). Native kernels need "
                    "a working C compiler (cc, gcc or clang, or $CC).",
                    detail,
                )
            return None
        try:
            fn = getattr(provider, raw)
            # Call the kernel once on a toy input, so a broken build is
            # classified as a compile error instead of a mid-query surprise.
            fn(*_WARMUP_ARGS[raw]())
        except Exception as exc:
            self._mark_fallen(raw, "compile")
            _log.warning("native kernel %s failed to compile (%s); using numpy", raw, exc)
            return None
        self._compiled[raw] = fn
        return fn

    def _mark_fallen(self, raw: str, reason: str) -> None:
        for kernel, raw_name in KERNEL_RAW.items():
            if raw_name == raw:
                self._fallen.setdefault(kernel, reason)

    def _poison(self, kernel: str, exc: Exception):
        """A compiled kernel raised: log, poison it, count the dispatch."""
        self._fallen[kernel] = "runtime"
        self._compiled.pop(KERNEL_RAW[kernel], None)
        _log.warning("native kernel %s raised (%s); falling back to numpy", kernel, exc)
        obs.add("kernel.native_fallback", kernel=kernel, reason="runtime")

    def _delegate(self, kernel: str):
        obs.add("kernel.native_fallback", kernel=kernel, reason="delegated")

    # -- peeling ----------------------------------------------------------
    def peel_coreness(self, graph) -> np.ndarray:
        fn = self._resolve("peel_coreness")
        if fn is not None:
            try:
                coreness, _ = fn(graph.indptr, graph.indices, graph.degrees().copy())
                return coreness
            except Exception as exc:
                self._poison("peel_coreness", exc)
        return self._numpy.peel_coreness(graph)

    def peel_exact(self, graph):
        fn = self._resolve("peel_exact")
        if fn is not None:
            try:
                return fn(graph.indptr, graph.indices, graph.degrees().copy())
            except Exception as exc:
                self._poison("peel_exact", exc)
        return self._numpy.peel_exact(graph)

    def hindex_fixpoint(self, graph, estimate, vertices) -> np.ndarray:
        fn = self._resolve("hindex_fixpoint")
        if fn is not None:
            try:
                return fn(graph.indptr, graph.indices, _i64(estimate), _i64(vertices))
            except Exception as exc:
                self._poison("hindex_fixpoint", exc)
        return self._numpy.hindex_fixpoint(graph, estimate, vertices)

    # -- triangles --------------------------------------------------------
    def count_triangles(self, graph) -> int:
        self._delegate("count_triangles")
        return self._numpy.count_triangles(graph)

    def truss_peel(self, graph, edges) -> np.ndarray:
        self._delegate("truss_peel")
        return self._numpy.truss_peel(graph, edges)

    def triangle_charges(self, ordered) -> np.ndarray:
        fn = self._resolve("triangle_charges")
        if fn is not None:
            try:
                indices = _i64(ordered.indices)
                nbr_rank = _i64(ordered.rank)[indices]
                return fn(_i64(ordered.indptr), indices, nbr_rank, _i64(ordered.high))
            except Exception as exc:
                self._poison("triangle_charges", exc)
        return self._numpy.triangle_charges(ordered)

    def triplet_charges(self, ordered) -> np.ndarray:
        fn = self._resolve("triplet_charges")
        if fn is not None:
            try:
                return fn(_i64(ordered.indptr), _i64(ordered.indices), _i64(ordered.same))
            except Exception as exc:
                self._poison("triplet_charges", exc)
        return self._numpy.triplet_charges(ordered)

    # -- dynamic maintenance ----------------------------------------------
    def subcore_repair(self, indptr, indices, active, xptr, xindices, xactive,
                       core, ops_u, ops_v, ops_kind, limit):
        fn = self._resolve("subcore_repair")
        if fn is not None:
            # This kernel mutates core/active/xactive in place; snapshot
            # them so a runtime failure can fall back on pristine inputs.
            snapshot = (core.copy(), active.copy(), xactive.copy())
            try:
                return fn(indptr, indices, active, xptr, xindices, xactive,
                          core, ops_u, ops_v, ops_kind, limit)
            except Exception as exc:
                self._poison("subcore_repair", exc)
                core[:], active[:], xactive[:] = snapshot
        return self._numpy.subcore_repair(
            indptr, indices, active, xptr, xindices, xactive,
            core, ops_u, ops_v, ops_kind, limit,
        )

    # -- connectivity / weights -------------------------------------------
    def connected_components(self, graph, active):
        self._delegate("connected_components")
        return self._numpy.connected_components(graph, active)

    def vertex_strengths(self, graph, arc_weights) -> np.ndarray:
        self._delegate("vertex_strengths")
        return self._numpy.vertex_strengths(graph, arc_weights)


def native_runtime_metadata(*, resolve: bool = False) -> dict:
    """Provider facts for ``BENCH_*.json`` / ``execution_metadata`` stamping.

    Cheap by default — reports availability without building the C
    library.  ``resolve=True`` additionally loads the kernels (via the
    registered backend) and reports per-kernel native/fallback status.
    """
    from . import get_backend

    info: dict = {
        "disabled": _disabled(),
        "cc_compiler": _native_cc.compiler_path(),
    }
    if resolve:
        backend = get_backend("native")
        if isinstance(backend, NativeBackend):
            info["provider"] = backend.provider_name()
            info["jit_cache"] = backend.jit_cache_state()
            info["kernels"] = {
                k: (f"fallback:{v['reason']}" if v["mode"] == "fallback" else v["mode"])
                for k, v in backend.kernel_status().items()
            }
    return info
