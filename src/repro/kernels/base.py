"""The kernel backend interface.

A *kernel* is one of the O(m)-ish inner computations every algorithm in the
package funnels through: degree peeling, the h-index fixpoint round,
forward triangle counting, truss peeling, Algorithm 3's triangle and
triplet charges, batched subcore repair, connected components, and
weighted strength accumulation.  A *backend* is one implementation
strategy for all of them; the ``python`` backend is the bit-identical
scalar reference, the ``numpy`` backend replaces the per-vertex loops with
whole-frontier array passes (see :mod:`repro.kernels.numpy_backend`) and
the ``native`` backend runs compiled C loops.

Backends are stateless: every method takes the graph (plus kernel-specific
inputs) and returns plain numpy arrays.  Every backend must return
*exactly* the same values — the equivalence suite in
``tests/test_kernels.py`` holds them to integer-for-integer equality — so
a backend's ``name`` is all an artifact-store key needs to record.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from . import _native_impl, loops

__all__ = ["KernelBackend"]


class KernelBackend:
    """Abstract base: one implementation strategy for all hot-path kernels."""

    #: Registry key (``REPRO_BACKEND`` value) identifying the backend.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Core peeling
    # ------------------------------------------------------------------
    def peel_coreness(self, graph: Graph) -> np.ndarray:
        """Coreness of every vertex (length-``n`` int64 array).

        Backends may use any peeling formulation — coreness values are
        unique, so all correct implementations agree exactly.
        """
        raise NotImplementedError

    def peel_exact(self, graph: Graph) -> tuple[np.ndarray, np.ndarray]:
        """``(coreness, peel_order)`` with the exact bucket-peel order.

        The removal sequence of Batagelj–Zaversnik peeling depends on
        one-at-a-time degree updates and does not vectorise; every backend
        shares the scalar bucket loop so ``peel_order`` is identical
        everywhere.  By default that loop runs uncompiled.
        """
        return loops.peel_exact(_native_impl.peel_exact, graph)

    def hindex_fixpoint(self, graph: Graph, estimate: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """One synchronous round of the h-index fixpoint over ``vertices``.

        ``estimate`` is the current per-vertex coreness upper bound (the
        fixpoint starts from degrees); the return value is the refreshed
        estimate for exactly the ``vertices`` slice: for each ``v`` the
        h-index of ``{estimate[u] : u in N(v)}``, clipped to ``estimate[v]``
        (the operator is monotone non-increasing, so the clip is a no-op on
        correct inputs but keeps adversarial inputs safe).  ``estimate`` is
        never written — callers apply the update, which is what makes the
        Jacobi round of :mod:`repro.external` independent of how a sweep
        is cut into slices.

        Iterating to the fixpoint yields exact coreness (Lü et al. 2016),
        which is why the semi-external decomposition is bit-identical to
        peeling.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Triangles
    # ------------------------------------------------------------------
    def count_triangles(self, graph: Graph) -> int:
        """Number of triangles in ``graph`` (each counted once)."""
        raise NotImplementedError

    def truss_peel(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        """Truss number of every edge of ``edges`` (length-``m`` int64).

        ``edges`` is the graph's full ``(m, 2)`` edge list with ``u < v``
        rows, as :meth:`Graph.edge_array` emits it.  ``result[i]`` is the
        largest k whose k-truss contains ``edges[i]`` (>= 2).  Truss
        numbers are unique, so every peeling formulation agrees exactly.
        """
        raise NotImplementedError

    def triangle_charges(self, ordered) -> np.ndarray:
        """Per-vertex triangle charges under a rank order (Algorithm 3).

        ``ordered`` is a rank-ordered adjacency with position tags (a
        :class:`repro.engine.levels.LevelOrdering`); the kernel reads its
        ``graph``, ``indptr``, ``indices``, ``rank`` and ``high`` arrays.
        ``result[v]`` is the number of triangles whose minimum-rank corner
        is ``v``; O(m^1.5) total work under a degeneracy-compatible order.
        """
        raise NotImplementedError

    def triplet_charges(self, ordered) -> np.ndarray:
        """Per-vertex triplet charges under a rank order (Algorithm 3).

        ``ordered`` is any rank-ordered adjacency with position tags; the
        kernel reads its ``indptr``, ``indices`` and ``same`` arrays.
        ``result[y]`` is ``C(|N(y, >=)|, 2)`` plus, for every arc
        ``x -> y`` in the lower-level prefix of ``x``'s row, the number of
        arcs after it in that row.  Every triplet is charged once, to a
        vertex of the level where it first appears and inside the
        component it appears in, so summing over a shell or a forest node
        gives that group's triplet increment.  O(m) work.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------
    def subcore_repair(self, indptr, indices, active, xptr, xindices, xactive,
                       core, ops_u, ops_v, ops_kind, limit):
        """Apply a batch of edge updates to a coreness array, in place.

        The working adjacency is two-part so no O(m) CSR merge is needed:
        the *old* snapshot's ``indptr``/``indices`` filtered by the uint8
        per-arc ``active`` mask, plus an "extra" CSR (``xptr``/``xindices``
        /``xactive``, rows id-sorted) holding only the delta's inserted
        arcs.  ``ops_u``/``ops_v``/``ops_kind`` list the edge updates
        (kind 0 = delete, 1 = insert); deletes must exist in the old CSR,
        inserts in the extra CSR, and the two sets must be disjoint —
        exactly what an effective :class:`repro.dynamic.GraphDelta` yields.

        Deletes are repaired first, exactly, by a chaotic descent of the
        h-index fixpoint from the old coreness; inserts then replay the
        sequential per-edge optimistic subcore peel.  ``core``, ``active``
        and ``xactive`` are mutated in place.  Returns the number of ops
        applied as int64: short of ``len(ops_u)`` means an insert subcore
        exceeded ``limit`` visited vertices — the arrays are then in an
        undefined intermediate state and the caller must discard them and
        re-peel.  Coreness is unique, so every backend is bit-identical.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self, graph: Graph, active: np.ndarray) -> tuple[np.ndarray, int]:
        """Component labels over the subgraph induced by ``active``.

        ``active`` is a length-``n`` boolean mask.  Returns ``(labels,
        count)`` where inactive vertices get label ``-1`` and active
        components are numbered ``0..count-1`` by ascending minimum member
        id (the order BFS from the smallest unvisited vertex produces).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Weighted graphs
    # ------------------------------------------------------------------
    def vertex_strengths(self, graph: Graph, arc_weights: np.ndarray) -> np.ndarray:
        """Sum of incident arc weights per vertex (length-``n`` float64).

        ``arc_weights`` is aligned with ``graph.indices`` (both directions
        of every edge carry its weight).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
