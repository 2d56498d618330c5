"""The native-speed kernel backend (``REPRO_BACKEND=native``).

Compiled implementations of the hot kernels — exact O(m) bucket peeling,
the h-index fixpoint round, merge-intersection triangle supports/charges,
per-vertex triplet charges, and strength accumulation — behind a **per-kernel
soft fallback**: anything that cannot run native (numba not installed, no
C toolchain, a compile failure, a runtime error) transparently delegates to
the numpy implementation of exactly that kernel, and the degradation is
counted per reason on the ``kernel.native_fallback{kernel=,reason=}``
counter so ``bestk stats`` shows what actually ran native.

Two JIT providers implement the raw kernels of
:mod:`repro.kernels._native_impl`:

``numba``
    Preferred when importable: ``@njit(cache=True, nogil=True)`` over the
    raw loop functions verbatim.  Install with ``pip install repro[native]``.
``cc``
    A C translation of the same loops, compiled once with the system
    compiler and bound through ctypes (:mod:`repro.kernels._native_cc`).
    Keeps native speed available on boxes with a toolchain but no numba.

Selection: ``REPRO_NATIVE_PROVIDER`` forces ``numba``/``cc``;
``REPRO_NATIVE_DISABLE=1`` forces every kernel to the numpy fallback
(useful for bit-identity A/B checks).  Both are consulted dynamically, so
flipping them in a test takes effect on the registered singleton.

Fallback reasons (the ``reason`` label):

* ``disabled`` — ``REPRO_NATIVE_DISABLE`` is set;
* ``import`` — no provider could load (numba missing and no C toolchain);
* ``compile`` — a provider loaded but this kernel failed to compile;
* ``runtime`` — the compiled kernel raised at call time (poisoned from
  then on);
* ``delegated`` — the kernel has no native implementation by design
  (``count_triangles``, ``triangles_per_vertex``,
  ``connected_components`` — already memory-bandwidth-bound under numpy;
  ``truss_peel`` — a whole-frontier array pass under numpy, with no
  compiled form yet).

All answers are bit-identical to the other backends — compiled kernels
mirror the scalar reference statement for statement and the equivalence
suite (``tests/test_kernels.py``, ``tests/test_native.py``) enforces it —
so artifact-store bundle keys and index identity tokens may treat
``native`` as just another backend name.

Layering: this module (and its provider modules) imports nothing from
``repro`` outside ``repro.kernels`` except the :mod:`repro.obs` leaf for
the fallback counter; ``scripts/check_imports.py`` enforces it.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .. import obs
from ._native_impl import RAW_KERNELS
from .base import KernelBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "DISABLE_ENV_VAR",
    "PROVIDER_ENV_VAR",
    "NativeBackend",
    "native_runtime_metadata",
    "numba_version",
]

#: Set to any non-empty value to force every kernel to the numpy fallback.
DISABLE_ENV_VAR = "REPRO_NATIVE_DISABLE"

#: Force a specific JIT provider: ``numba`` or ``cc``.
PROVIDER_ENV_VAR = "REPRO_NATIVE_PROVIDER"

#: Kernel-method name -> raw provider kernel implementing it.
KERNEL_RAW = {
    "peel_coreness": "peel_exact",
    "peel_exact": "peel_exact",
    "hindex_fixpoint": "hindex_fixpoint",
    "edge_supports": "edge_supports",
    "triangle_charges": "triangle_charges",
    "triplet_charges": "triplet_charges",
    "vertex_strengths": "vertex_strengths",
    "subcore_repair": "subcore_repair",
}

#: Kernels that intentionally stay on the numpy implementation: their numpy
#: forms are already whole-array passes with no scalar inner loop left.
DELEGATED_KERNELS = (
    "count_triangles", "triangles_per_vertex", "truss_peel", "connected_components",
)

_log = logging.getLogger("repro.kernels.native")

#: provider key -> loaded provider instance or load-failure reason.
#: Module-level so every NativeBackend instance shares one compiled set
#: (numba caches per function; the cc library is one dlopen).
_PROVIDER_CACHE: dict[str, object] = {}

_WARNED = False


def numba_version() -> str | None:
    """Installed numba version, or ``None`` (without importing eagerly)."""
    try:
        import numba  # type: ignore

        return numba.__version__
    except Exception:
        return None


def _load_numba():
    import numba

    from . import _native_impl as impl

    jit = numba.njit(cache=True, nogil=True)
    fns = {name: jit(getattr(impl, name)) for name in RAW_KERNELS}

    class _NumbaProvider:
        name = f"numba-{numba.__version__}"
        # numba's on-disk cache state is per-function; report the cache
        # directory policy rather than guessing warm/cold.
        cache_state = "numba-cache"

    provider = _NumbaProvider()
    for raw, fn in fns.items():
        setattr(provider, raw, fn)
    return provider


def _load_cc():
    from . import _native_cc

    if _native_cc.compiler_path() is None:
        raise ImportError("no C compiler found (checked $CC, cc, gcc, clang)")
    return _native_cc.load_provider()


def _provider_order() -> tuple[str, ...]:
    forced = os.environ.get(PROVIDER_ENV_VAR, "").strip().lower()
    if forced in ("numba", "cc"):
        return (forced,)
    if forced:
        _log.warning("%s=%r is not a known provider; trying numba, cc", PROVIDER_ENV_VAR, forced)
    return ("numba", "cc")


def _get_provider():
    """``(provider, reason)`` — the first loadable provider, else a reason."""
    last_reason = "import"
    for key in _provider_order():
        cached = _PROVIDER_CACHE.get(key)
        if cached is None:
            try:
                cached = _load_numba() if key == "numba" else _load_cc()
            except Exception as exc:
                cached = f"compile: {exc}" if key == "cc" and not isinstance(
                    exc, ImportError
                ) else f"import: {exc}"
            _PROVIDER_CACHE[key] = cached
        if not isinstance(cached, str):
            return cached, None
        last_reason = cached.split(":", 1)[0]
    return None, last_reason


#: Tiny warm-up graph (a triangle plus a pendant edge) used to force JIT
#: compilation at resolve time, so compile errors are classified as
#: ``compile`` rather than surfacing mid-query as ``runtime``.
_WARM_INDPTR = np.array([0, 3, 5, 7, 8], dtype=np.int64)
_WARM_INDICES = np.array([1, 2, 3, 0, 2, 0, 1, 0], dtype=np.int64)

_WARMUP_ARGS = {
    "peel_exact": lambda: (_WARM_INDPTR, _WARM_INDICES,
                           np.diff(_WARM_INDPTR).astype(np.int64)),
    "hindex_fixpoint": lambda: (_WARM_INDPTR, _WARM_INDICES,
                                np.diff(_WARM_INDPTR).astype(np.int64),
                                np.arange(4, dtype=np.int64)),
    "edge_supports": lambda: (_WARM_INDPTR, _WARM_INDICES,
                              np.array([0, 0], dtype=np.int64),
                              np.array([1, 2], dtype=np.int64)),
    "triangle_charges": lambda: (_WARM_INDPTR, _WARM_INDICES,
                                 np.arange(8, dtype=np.int64),
                                 np.zeros(4, dtype=np.int64)),
    "triplet_charges": lambda: (_WARM_INDPTR, _WARM_INDICES,
                                np.zeros(4, dtype=np.int64)),
    "vertex_strengths": lambda: (_WARM_INDPTR, np.ones(8, dtype=np.float64)),
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
        """Per-kernel ``{"mode": ..., "reason": ...}`` map (resolves JITs).

        ``mode`` is ``native`` (compiled code runs), ``fallback`` (numpy
        runs, ``reason`` says why) or ``delegated`` (numpy by design).
        """
        status: dict[str, dict] = {}
        for kernel in KERNEL_RAW:
            fn = self._resolve(kernel, count=False)
            if fn is not None:
                status[kernel] = {"mode": "native", "reason": None}
            else:
                status[kernel] = {"mode": "fallback", "reason": self._fallen.get(kernel)}
        for kernel in DELEGATED_KERNELS:
            status[kernel] = {"mode": "delegated", "reason": "delegated"}
        return status

    # -- dispatch machinery -----------------------------------------------
    def _resolve(self, kernel: str, *, count: bool = True):
        """The compiled raw kernel behind ``kernel``, or ``None`` (fallback).

        Counts one ``kernel.native_fallback`` per dispatch that lands on
        numpy; classification (disabled / import / compile / runtime) is
        sticky except for ``disabled``, which is re-read per call so the
        env var can be flipped at runtime.
        """
        if os.environ.get(DISABLE_ENV_VAR, "").strip():
            if count:
                obs.add("kernel.native_fallback", kernel=kernel, reason="disabled")
            return None
        reason = self._fallen.get(kernel)
        if reason is not None:
            if count:
                obs.add("kernel.native_fallback", kernel=kernel, reason=reason)
            return None
        raw = KERNEL_RAW[kernel]
        fn = self._compiled.get(raw)
        if fn is None:
            fn = self._compile(raw)
            if fn is None:
                # _compile recorded the reason for every kernel sharing raw.
                if count:
                    obs.add(
                        "kernel.native_fallback", kernel=kernel,
                        reason=self._fallen.get(kernel, "compile"),
                    )
                return None
        return fn

    def _compile(self, raw: str):
        provider, load_reason = _get_provider()
        global _WARNED
        if provider is None:
            self._mark_fallen(raw, load_reason or "import")
            if not _WARNED:
                _WARNED = True
                _log.warning(
                    "native backend unavailable (%s): no JIT provider could be "
                    "loaded (tried: %s); kernels fall back to the numpy backend "
                    "(bit-identical, slower). Install with `pip install repro[native]`.",
                    load_reason or "import", ", ".join(_provider_order()),
                )
            return None
        try:
            fn = getattr(provider, raw)
            # Force JIT compilation now, on a toy input, so failures are
            # classified as compile errors instead of mid-query surprises.
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

    def triangles_per_vertex(self, graph) -> np.ndarray:
        self._delegate("triangles_per_vertex")
        return self._numpy.triangles_per_vertex(graph)

    def edge_supports(self, graph, edges) -> np.ndarray:
        fn = self._resolve("edge_supports")
        if fn is not None:
            try:
                edges = _i64(edges)
                eu = np.ascontiguousarray(edges[:, 0])
                ev = np.ascontiguousarray(edges[:, 1])
                return fn(graph.indptr, graph.indices, eu, ev)
            except Exception as exc:
                self._poison("edge_supports", exc)
        return self._numpy.edge_supports(graph, edges)

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
        fn = self._resolve("vertex_strengths")
        if fn is not None:
            try:
                arcs = np.ascontiguousarray(arc_weights, dtype=np.float64)
                return fn(graph.indptr, arcs)
            except Exception as exc:
                self._poison("vertex_strengths", exc)
        return self._numpy.vertex_strengths(graph, arc_weights)


def native_runtime_metadata(*, resolve: bool = False) -> dict:
    """Provider facts for ``BENCH_*.json`` / ``execution_metadata`` stamping.

    Cheap by default — reports availability without triggering any JIT
    compilation.  ``resolve=True`` additionally compiles the kernels (via
    the registered backend) and reports per-kernel native/fallback status.
    """
    from . import get_backend

    info: dict = {
        "numba_version": numba_version(),
        "disabled": bool(os.environ.get(DISABLE_ENV_VAR, "").strip()),
        "provider_preference": list(_provider_order()),
    }
    try:
        from . import _native_cc

        info["cc_compiler"] = _native_cc.compiler_path()
    except Exception:
        info["cc_compiler"] = None
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
