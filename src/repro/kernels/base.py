"""The kernel backend interface.

A *kernel* is one of the O(m)-ish inner computations every algorithm in the
package funnels through: degree peeling, forward triangle counting,
per-edge triangle supports, edge-support (truss) peeling, connected
components, and weighted strength accumulation.  A *backend* is one
implementation strategy for all of them; the ``python`` backend is the
bit-identical scalar reference and the ``numpy`` backend replaces the
per-vertex loops with whole-frontier array passes (see
:mod:`repro.kernels.numpy_backend`).

Backends are stateless: every method takes the graph (plus kernel-specific
inputs) and returns plain numpy arrays.  Both backends must return *exactly*
the same values — the equivalence suite in ``tests/test_kernels.py`` holds
them to integer-for-integer equality.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import Graph
from .common import exact_peel

__all__ = ["KernelBackend"]


class KernelBackend:
    """Abstract base: one implementation strategy for all hot-path kernels."""

    #: Registry key (``REPRO_BACKEND`` value) identifying the backend.
    name: str = "abstract"

    def store_token(self) -> str:
        """Identity token for on-disk artifacts built through this backend.

        :class:`repro.index.store.ArtifactStore` keys every bundle by this
        token so artifacts from different backends never alias.  The
        default — the backend name — is correct for any backend honouring
        the bit-identity contract; a backend whose results could legally
        differ (e.g. an approximate GPU kernel) must override this to
        fragment the cache further.  The ``native`` backend keeps the
        plain name even when individual kernels fall back to numpy,
        because fallback is bit-identical by construction.
        """
        return self.name

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
        everywhere.
        """
        return exact_peel(graph)

    def hindex_fixpoint(self, graph: Graph, estimate: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """One synchronous round of the h-index fixpoint over ``vertices``.

        ``estimate`` is the current per-vertex coreness upper bound (the
        fixpoint starts from degrees); the return value is the refreshed
        estimate for exactly the ``vertices`` slice: for each ``v`` the
        h-index of ``{estimate[u] : u in N(v)}``, clipped to ``estimate[v]``
        (the operator is monotone non-increasing, so the clip is a no-op on
        correct inputs but keeps adversarial inputs safe).  ``estimate`` is
        never written — callers apply the update, which is what makes the
        Jacobi round of the sharded engine (:mod:`repro.parallel.sharded`)
        deterministic across any shard partition.

        Iterating to the fixpoint yields exact coreness (Lü et al. 2016),
        which is why the sharded engine is bit-identical to peeling.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Triangles
    # ------------------------------------------------------------------
    def count_triangles(self, graph: Graph) -> int:
        """Number of triangles in ``graph`` (each counted once)."""
        raise NotImplementedError

    def triangles_per_vertex(self, graph: Graph) -> np.ndarray:
        """Number of triangles through each vertex (length-``n`` array)."""
        raise NotImplementedError

    def edge_supports(self, graph: Graph, edges: np.ndarray) -> np.ndarray:
        """Triangles through each edge of ``edges`` (an ``(m, 2)`` array).

        This is the truss decomposition's initial *support* vector.
        """
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

        ``ordered`` is any rank-ordered adjacency with position tags — a
        :class:`repro.core.ordering.OrderedGraph` or
        :class:`repro.engine.levels.LevelOrdering`; the kernel reads its
        ``graph``, ``indptr``, ``indices``, ``rank`` and ``high`` arrays.
        ``result[v]`` is the number of triangles whose minimum-rank corner
        is ``v``; O(m^1.5) total work under a degeneracy-compatible order.
        """
        raise NotImplementedError

    def triplet_group_deltas(self, ordered, groups: list[np.ndarray]) -> np.ndarray:
        """Incremental triplet counts per vertex group (Algorithm 3).

        ``groups`` must be ordered by non-increasing coreness/level, with
        equal-level groups vertex-disjoint, mutually non-adjacent and never
        sharing a higher-level neighbour (true for shells and forest nodes
        alike).  ``result[i]`` is the number of triplets that appear when
        group ``i``'s vertices join the already-seen higher-level region.
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
