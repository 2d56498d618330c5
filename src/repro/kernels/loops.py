"""One adapter from graphs and orderings to the raw loop kernels.

Five kernels are scalar loops with one body each: a C function
``repro_<raw>`` in :mod:`repro.kernels._native_cc` and its python twin
``_native_impl.<raw>``, which take the same raw arrays in the same order.
The functions here marshal a :class:`~repro.graph.csr.Graph` or a
:class:`~repro.engine.levels.LevelOrdering` into those arrays, allocate
outputs and scratch, run one *loop* (either body) and unpack the result.
So both bodies see byte-for-byte the same inputs, and the marshalling
exists once.

:class:`LoopKernels` serves the kernel methods through this adapter.  Its
:meth:`~LoopKernels._loop` hook picks the body: the uncompiled twin for
the ``python`` backend; the compiled C, with its one fault path, for the
``native`` backend (:mod:`repro.kernels.native_backend`).

Adding a compiled kernel takes three steps: the C function, its
``_native_impl`` twin with the same arguments, and one adapter function
here, registered with ``@_adapter(raw)`` under the kernel method's name.
"""

from __future__ import annotations

import numpy as np

from . import _native_impl

__all__ = ["KERNEL_RAW", "LOOP_KERNELS", "LoopKernels"]

#: Kernel method -> ``(raw, adapter)``: the raw loop (C ``repro_<raw>``,
#: python ``_native_impl.<raw>``) and the function that feeds it.
LOOP_KERNELS: dict[str, tuple] = {}


def _adapter(raw: str):
    """Register the decorated function as the adapter of the kernel method
    of the same name, feeding the raw loop ``raw``."""
    def register(adapter):
        LOOP_KERNELS[adapter.__name__] = (raw, adapter)
        return adapter
    return register


def _i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


@_adapter("peel_exact")
def peel_exact(loop, graph):
    n = graph.num_vertices
    deg = _i64(graph.degrees()).copy()
    max_deg = int(deg.max()) if n else 0
    coreness = np.zeros(n, dtype=np.int64)
    vert = np.zeros(n, dtype=np.int64)
    scratch = [np.empty(size, dtype=np.int64) for size in (n, max_deg + 2, max_deg + 2)]
    loop(n, _i64(graph.indptr), _i64(graph.indices), deg, max_deg, coreness, vert, *scratch)
    return coreness, vert


@_adapter("peel_exact")
def peel_coreness(loop, graph):
    return peel_exact(loop, graph)[0]


@_adapter("hindex_fixpoint")
def hindex_fixpoint(loop, graph, estimate, vertices):
    indptr = _i64(graph.indptr)
    vertices = _i64(vertices)
    degs = indptr[vertices + 1] - indptr[vertices]
    out = np.zeros(len(vertices), dtype=np.int64)
    counts = np.zeros(int(degs.max(initial=0)) + 1, dtype=np.int64)
    loop(len(vertices), vertices, indptr, _i64(graph.indices), _i64(estimate), out, counts)
    return out


@_adapter("triangle_charges")
def triangle_charges(loop, ordered):
    indptr, indices = _i64(ordered.indptr), _i64(ordered.indices)
    charges = np.zeros(len(indptr) - 1, dtype=np.int64)
    loop(len(charges), indptr, indices, _i64(ordered.rank)[indices], _i64(ordered.high), charges)
    return charges


@_adapter("triplet_charges")
def triplet_charges(loop, ordered):
    indptr = _i64(ordered.indptr)
    charges = np.zeros(len(indptr) - 1, dtype=np.int64)
    loop(len(charges), indptr, _i64(ordered.indices), _i64(ordered.same), charges)
    return charges


@_adapter("subcore_repair")
def subcore_repair(loop, indptr, indices, active, xptr, xindices, xactive,
                   core, ops_u, ops_v, ops_kind, limit):
    # core, active and xactive are written in place, so they pass through
    # as they are: the compiled loop rejects a wrong dtype.
    indptr, indices, xptr, xindices = _i64(indptr), _i64(indices), _i64(xptr), _i64(xindices)
    ops_u, ops_v, ops_kind = _i64(ops_u), _i64(ops_v), _i64(ops_kind)
    n = len(indptr) - 1
    degs = np.diff(indptr) + np.diff(xptr)
    counts = np.zeros(int(degs.max(initial=0)) + 2, dtype=np.int64)
    stamp, removed = np.full(n, -1, dtype=np.int64), np.full(n, -1, dtype=np.int64)
    support, members, stack = (np.empty(n, dtype=np.int64) for _ in range(3))
    applied = loop(n, indptr, indices, active, xptr, xindices, xactive, core,
                   len(ops_u), ops_u, ops_v, ops_kind, int(limit), stamp, removed,
                   support, members, stack, np.zeros(n, dtype=np.uint8), counts)
    return np.int64(applied)


#: Kernel method -> the raw loop behind it.
KERNEL_RAW = {kernel: raw for kernel, (raw, _) in LOOP_KERNELS.items()}


class LoopKernels:
    """Mixin: every kernel of :data:`LOOP_KERNELS` as a method that runs
    its adapter on the loop :meth:`_loop` picks."""

    def _loop(self, kernel: str, *args):
        """Run ``kernel`` on its ``_native_impl`` twin, uncompiled."""
        raw, adapter = LOOP_KERNELS[kernel]
        return adapter(getattr(_native_impl, raw), *args)


def _method(kernel: str):
    def method(self, *args):
        return self._loop(kernel, *args)
    method.__name__, method.__qualname__ = kernel, f"LoopKernels.{kernel}"
    method.__doc__ = f"The ``{kernel}`` kernel, through its loop adapter."
    return method


for _kernel in LOOP_KERNELS:
    setattr(LoopKernels, _kernel, _method(_kernel))
