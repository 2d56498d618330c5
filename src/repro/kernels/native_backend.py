"""The native-speed kernel backend (``REPRO_BACKEND=native``).

The five loop kernels — exact O(m) bucket peeling, the h-index fixpoint
round, Algorithm 3's merge-intersection triangle charges and one-pass
triplet charges, and the batched subcore repair — run compiled C through
the same adapter (:mod:`repro.kernels.loops`) that runs their python
twins for the ``python`` backend.  Everything else is inherited from
:class:`~repro.kernels.numpy_backend.NumpyBackend`.

One fault path serves every loop kernel (:meth:`NativeBackend._loop`):
resolve the compiled kernel, try it, poison it when it raises, and
otherwise run the numpy implementation of exactly that kernel.  Each
dispatch that lands on numpy is counted per reason on the
``kernel.native_fallback{kernel=,reason=}`` counter, so ``bestk stats``
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
  then on).  The in-place ``subcore_repair`` then returns ``-1`` instead
  of re-running numpy on arrays the fault may have half-written: the
  caller discards them and re-peels the new snapshot.

``count_triangles``, ``truss_peel``, ``connected_components`` and
``vertex_strengths`` are *delegated*: numpy by design, inherited, and not
counted as fallbacks (already memory-bandwidth-bound whole-array passes,
or no compiled form yet).  :meth:`NativeBackend.kernel_status`, ``bestk
backends`` and :func:`native_runtime_metadata` report them as
``delegated``.

All answers are bit-identical to the other backends — each C function
runs the loop of its ``_native_impl`` twin, and the equivalence suite
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
from types import SimpleNamespace

import numpy as np

from .. import obs
from . import _native_cc
from .loops import KERNEL_RAW, LOOP_KERNELS, LoopKernels
from .numpy_backend import NumpyBackend

__all__ = [
    "DISABLE_ENV_VAR",
    "NativeBackend",
    "native_runtime_metadata",
]

#: Set to any non-empty value to force every kernel to the numpy fallback.
DISABLE_ENV_VAR = "REPRO_NATIVE_DISABLE"

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
                _PROVIDER = _native_cc.CcProvider()
            except Exception as exc:
                _PROVIDER = f"compile: {exc}"
    if isinstance(_PROVIDER, str):
        return None, _PROVIDER
    return _PROVIDER, None


#: Tiny warm-up input (a triangle plus a pendant edge), shaped as both a
#: graph and a rank ordering for the adapter, used to exercise every
#: kernel at resolve time, so a broken build is classified as ``compile``
#: rather than surfacing mid-query as ``runtime``.
_WARM = SimpleNamespace(
    num_vertices=4,
    indptr=np.array([0, 3, 5, 7, 8], dtype=np.int64),
    indices=np.array([1, 2, 3, 0, 2, 0, 1, 0], dtype=np.int64),
    degrees=lambda: np.array([3, 2, 2, 1], dtype=np.int64),
    rank=np.arange(4, dtype=np.int64),
    high=np.zeros(4, dtype=np.int64),
    same=np.zeros(4, dtype=np.int64),
)

#: Raw loop -> adapter arguments of its warm-up call, when more than the
#: warm-up graph alone.
_WARMUP_ARGS = {
    "hindex_fixpoint": lambda: (_WARM, _WARM.degrees(), np.arange(4, dtype=np.int64)),
    # Delete the pendant edge (0,3), then insert (1,3) through the extra
    # CSR — exercises both phases of the batched repair.
    "subcore_repair": lambda: (_WARM.indptr, _WARM.indices,
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


class NativeBackend(LoopKernels, NumpyBackend):
    """The loop kernels compiled, everything else (and every fallback) numpy."""

    name = "native"

    def __init__(self) -> None:
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
    def _loop(self, kernel: str, *args):
        """The one fault path: resolve, try the compiled loop, poison, numpy."""
        fn = self._resolve(kernel)
        if fn is not None:
            try:
                return LOOP_KERNELS[kernel][1](fn, *args)
            except Exception as exc:
                self._poison(kernel, exc)
                if kernel == "subcore_repair":
                    # The fault may have half-written core/active/xactive.
                    # The -1 sentinel tells the caller to discard them and
                    # re-peel; numpy serves the next call.
                    return np.int64(-1)
        return getattr(NumpyBackend, kernel)(self, *args)

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
            LOOP_KERNELS[raw][1](fn, *_WARMUP_ARGS.get(raw, lambda: (_WARM,))())
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
