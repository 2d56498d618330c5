"""Pluggable kernel backends for the O(m) hot paths.

Every algorithm in the package funnels through a handful of inner kernels —
degree peeling, the h-index fixpoint round, forward triangle counting,
truss peeling, Algorithm 3's per-vertex triangle and triplet charges,
batched subcore repair, connected components, strength accumulation.
This subsystem keeps one *registry* of interchangeable implementations of
those kernels:

``python``
    The scalar reference.  The five *loop kernels* — exact O(m) bucket
    peeling, the h-index fixpoint round, Algorithm 3's triangle and
    triplet charges and the batched subcore repair — run their one loop
    source, the twins in :mod:`repro.kernels._native_impl`, uncompiled;
    the other kernels are plain per-vertex loops.
``numpy``
    Whole-frontier array passes (repeated pruning, batched hash-table
    probes, vectorised union-find); ~5-30x faster on graphs with 10^5+ edges.
``native`` (the default)
    The same five loops compiled from C (:mod:`repro.kernels._native_cc`,
    each C function the statement-for-statement mirror of its twin),
    numpy for everything else.  Degrades *per kernel* to the numpy
    implementation when no compiler is found, the build fails or a
    kernel fails — see :mod:`repro.kernels.native_backend`; every
    degradation is counted on the ``kernel.native_fallback{reason=}`` obs
    counter (``disabled``, ``import``, ``compile``, ``runtime``).  Kernels
    that are numpy by design (``delegated``) are not degradations and are
    not counted.

One adapter, :mod:`repro.kernels.loops`, marshals graphs and orderings
into the loops' raw arrays for both the ``python`` and the ``native``
backend.  Adding a compiled kernel takes three steps: a C function, its
``_native_impl`` twin with the same arguments, and one adapter function.

Selection, in precedence order:

1. an explicit ``backend=`` argument on the public entry points
   (:func:`repro.core.core_decomposition`,
   :func:`repro.graph.connected_components`, ...), accepting a name or a
   :class:`~repro.kernels.base.KernelBackend` instance;
2. the ``REPRO_BACKEND`` environment variable;
3. the default, ``native``: compiled C wherever the C unit builds, numpy
   wherever it does not.

When native is selected by the environment or the default, importing
this package makes sure the compiled library exists on disk (one ``stat``
once built, one compile per source revision otherwise; a failure is
recorded, never raised), so no build lands inside a timed request.

All three backends return exactly the same values
(``tests/test_kernels.py`` enforces integer-for-integer equality), so
switching backends is purely a performance decision.
``benchmarks/bench_native.py`` measures the gap on every kernel.

Observability: :func:`register_backend` wraps every kernel method of a
registered backend with :mod:`repro.obs` instrumentation — each dispatch
increments the ``kernel.dispatch`` counter (labelled by backend and
kernel name) and runs inside a ``kernel:<name>`` span.  Third-party
backends get the same treatment for free; the wrappers are transparent
(``functools.wraps``, identical arguments and return values) and cost a
no-op context manager when the recorder is disabled.
"""

from __future__ import annotations

import functools
import os
import time

from .. import obs
from ..errors import UnknownBackendError
from .base import KernelBackend
from .native_backend import NativeBackend, ensure_library
from .numpy_backend import NumpyBackend
from .python_backend import PythonBackend

__all__ = [
    "KernelBackend",
    "NativeBackend",
    "NumpyBackend",
    "PythonBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: Name of the backend used when neither ``backend=`` nor ``REPRO_BACKEND``
#: says otherwise.
DEFAULT_BACKEND = "native"

#: Environment variable consulted by :func:`get_backend`.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, KernelBackend] = {}

#: Kernel methods wrapped with obs instrumentation on registration.
KERNEL_METHODS = (
    "peel_coreness",
    "peel_exact",
    "hindex_fixpoint",
    "count_triangles",
    "truss_peel",
    "triangle_charges",
    "triplet_charges",
    "connected_components",
    "vertex_strengths",
    "subcore_repair",
)


def _instrumented(kernel_name: str, backend_name: str, bound):
    """Wrap one bound kernel method with a dispatch counter, span and
    latency histogram (``kernel.seconds{backend=,kernel=}``)."""

    @functools.wraps(bound)
    def wrapper(*args, **kwargs):
        obs.add("kernel.dispatch", backend=backend_name, kernel=kernel_name)
        with obs.span(f"kernel:{kernel_name}", backend=backend_name):
            start = time.perf_counter()
            result = bound(*args, **kwargs)
            obs.observe(
                "kernel.seconds", time.perf_counter() - start,
                backend=backend_name, kernel=kernel_name,
            )
            return result

    wrapper.__repro_obs_wrapped__ = bound
    return wrapper


def _instrument_backend(backend: KernelBackend) -> KernelBackend:
    """Bind obs-instrumented wrappers over the backend's kernel methods.

    Idempotent (re-registration with ``overwrite=True`` does not stack
    wrappers); wrappers live on the *instance*, so class-level behaviour
    and ``isinstance`` checks are untouched.
    """
    for name in KERNEL_METHODS:
        bound = getattr(backend, name, None)
        if bound is None or hasattr(bound, "__repro_obs_wrapped__"):
            continue
        setattr(backend, name, _instrumented(name, backend.name, bound))
    return backend


def register_backend(backend: KernelBackend, *, overwrite: bool = False) -> KernelBackend:
    """Add a backend instance to the registry under ``backend.name``.

    Third-party accelerator backends (GPU, ...) register themselves
    here; ``overwrite=True`` replaces an existing entry of the same name.
    Every kernel method is wrapped with :mod:`repro.obs` dispatch
    instrumentation on the way in (see :func:`_instrument_backend`).
    """
    key = backend.name.lower()
    if not overwrite and key in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[key] = _instrument_backend(backend)
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(backend: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend selector to a :class:`KernelBackend` instance.

    ``backend`` may be an instance (returned as-is), a registry name, or
    ``None`` — in which case ``$REPRO_BACKEND`` is consulted, falling back
    to :data:`DEFAULT_BACKEND`.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    found = _REGISTRY.get(str(backend).lower())
    if found is None:
        raise UnknownBackendError(str(backend), available_backends())
    return found


register_backend(PythonBackend())
register_backend(NumpyBackend())
# Always registered: construction is free (nothing is loaded until a
# kernel is dispatched) and an unusable toolchain degrades per kernel to
# the numpy implementations, never to an import error.
register_backend(NativeBackend())
if (os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND).lower() == "native":
    ensure_library()
