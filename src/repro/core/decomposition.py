"""Core decomposition (coreness of every vertex) — paper Section II-A.

Coreness is computed by the selected kernel backend (see
:mod:`repro.kernels`): the ``python`` backend runs the Batagelj–Zaversnik
bucket peel [7] — repeatedly remove the vertex of minimum remaining degree;
the degree at removal time, monotonically clipped, is the vertex's
*coreness* — while the default ``numpy`` backend uses the equivalent
repeated-pruning formulation, which removes whole degree-``<= k`` frontiers
per array pass.  Both take ``O(m)`` time and ``O(n)`` extra space and agree
exactly (coreness values are unique).

The result object :class:`CoreDecomposition` caches the artefacts every other
algorithm in this package needs:

* ``coreness[v]`` — largest k such that v belongs to the k-core set;
* ``kmax`` — graph degeneracy (largest non-empty core);
* ``order`` — vertices sorted by ascending coreness (bin sort, paper III-A),
  with ``shell_start`` giving O(1) slicing of any shell or k-core set;
  sorted on first access, so a store-hydrated decomposition whose ordering
  was hydrated beside it never sorts;
* ``peel_order`` — the exact removal sequence (a degeneracy ordering), used
  by the clique solver and by the LCPS tie-breaking tests.  The frontier
  formulation has no single removal sequence, so under the vectorised
  backend this is computed lazily by the ``peel_exact`` kernel (the
  shared bucket loop) on first access — algorithms that only need
  coreness never pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import Graph
from ..kernels import KernelBackend, get_backend

__all__ = ["CoreDecomposition", "core_decomposition"]


@dataclass(frozen=True)
class CoreDecomposition:
    """Coreness values plus the derived orderings of one graph.

    Instances are produced by :func:`core_decomposition`; all arrays are
    read-only.
    """

    graph: Graph
    #: ``coreness[v]`` = max k with v in the k-core set.
    coreness: np.ndarray
    #: Exact peeling sequence; ``None`` until first ``peel_order`` access.
    _peel_order: np.ndarray | None = None
    #: ``order[shell_start[k]:shell_start[k+1]]`` is the k-shell;
    #: ``order[shell_start[k]:]`` is the vertex set of the k-core set.
    shell_start: np.ndarray = field(init=False)
    #: Bin-sorted vertex order; ``None`` until first ``order`` access.
    _order: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        coreness = self.coreness
        kmax = int(coreness.max()) if len(coreness) else 0
        counts = np.bincount(coreness, minlength=kmax + 1) if len(coreness) else np.zeros(1, np.int64)
        shell_start = np.zeros(kmax + 2, dtype=np.int64)
        np.cumsum(counts, out=shell_start[1:])
        object.__setattr__(self, "shell_start", shell_start)
        for arr in (self.coreness, self._peel_order, shell_start):
            if arr is not None:
                arr.setflags(write=False)

    # ------------------------------------------------------------------
    @property
    def order(self) -> np.ndarray:
        """Vertices sorted by ascending coreness, ties by ascending id.

        Built on first access: a decomposition hydrated from the artifact
        store next to its ordering answers every query without it.
        """
        order = self._order
        if order is None:
            order = _coreness_order(self.coreness, self.kmax)
            order.setflags(write=False)
            object.__setattr__(self, "_order", order)
        return order

    @property
    def peel_order(self) -> np.ndarray:
        """Exact bucket-peel removal sequence (a degeneracy ordering).

        Identical under every backend; computed on first access, by the
        selected backend's ``peel_exact``, when the decomposition came from
        a frontier-peeling backend.
        """
        peel = self._peel_order
        if peel is None:
            _, peel = get_backend().peel_exact(self.graph)
            peel.setflags(write=False)
            object.__setattr__(self, "_peel_order", peel)
        return peel

    @property
    def kmax(self) -> int:
        """Graph degeneracy: the largest k with a non-empty k-core."""
        return len(self.shell_start) - 2

    def shell(self, k: int) -> np.ndarray:
        """Vertices with coreness exactly ``k`` (the k-shell ``H_k``)."""
        return self.order[self.shell_start[k]:self.shell_start[k + 1]]

    def shell_size(self, k: int) -> int:
        """``|H_k|`` in O(1)."""
        return int(self.shell_start[k + 1] - self.shell_start[k])

    def kcore_set_vertices(self, k: int) -> np.ndarray:
        """Vertex set of the k-core set ``C_k`` (coreness >= k), O(1) slice."""
        if k > self.kmax:
            return self.order[len(self.order):]
        k = max(k, 0)
        return self.order[self.shell_start[k]:]

    def kcore_set_size(self, k: int) -> int:
        """``|V(C_k)|`` in O(1)."""
        if k > self.kmax:
            return 0
        return int(len(self.coreness) - self.shell_start[max(k, 0)])

    def __repr__(self) -> str:
        return f"CoreDecomposition(n={len(self.coreness)}, kmax={self.kmax})"


def _coreness_order(coreness: np.ndarray, kmax: int) -> np.ndarray:
    """Vertices sorted by ascending coreness, ties by ascending id."""
    # Stable sort by coreness keeps ids ascending within a shell.  For
    # 16-bit keys numpy's stable sort is a radix sort: O(n), same order.
    keys = coreness.astype(np.uint16) if kmax < 2**16 else coreness
    return np.argsort(keys, kind="stable").astype(np.int64, copy=False)


def core_decomposition(
    graph: Graph,
    *,
    backend: str | KernelBackend | None = None,
) -> CoreDecomposition:
    """Compute the coreness of every vertex in ``O(m)`` time.

    Parameters
    ----------
    graph:
        The input graph.
    backend:
        Kernel backend selector (name, instance, or ``None`` for the
        ``REPRO_BACKEND`` / default resolution) — see :mod:`repro.kernels`.
    """
    n = graph.num_vertices
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return CoreDecomposition(graph, empty, empty.copy())

    kernels = get_backend(backend)
    if kernels.name == "python":
        # The scalar reference produces the exact peel order as a byproduct.
        coreness, peel_order = kernels.peel_exact(graph)
        return CoreDecomposition(graph, coreness, peel_order)
    return CoreDecomposition(graph, kernels.peel_coreness(graph))
