"""Epoch-stamped snapshots: applying deltas to immutable CSR graphs.

:class:`VersionedGraph` is the bridge between the mutable world (edge
streams) and the frozen one every algorithm in this package consumes.  It
wraps an immutable :class:`~repro.graph.csr.Graph` together with an epoch
counter and a *lineage* (the content digest of the epoch-0 graph);
:meth:`VersionedGraph.apply` produces a brand-new wrapper one epoch later
whose snapshot is a fresh ``Graph``.

Identity is handled by construction rather than convention: each snapshot
Graph is created with a preset :func:`stamp_epoch_digest` digest, so the
artifact store — which keys every bundle by ``graph.content_digest()`` —
can never alias artifacts across epochs, even if two epochs happen to
have identical CSR content (insert then delete the same edge).  The
stamp folds the lineage and epoch over an *edge-set token*: the vertex
count plus a 128-bit additive hash of the edge set
(:func:`edge_set_hash`).  The hash is a sum, so a delta updates it in
O(Δ) — add the inserted edges, subtract the deleted ones — and no epoch
ever hashes the whole CSR.  The stamped digest is epoch-local: pickling a
snapshot strips it (see ``Graph.__reduce__``), so worker processes always
re-derive pure content identity.

The CSR rebuild in :meth:`VersionedGraph.apply` is a splice: one
synchronised binary search (:func:`~repro.graph.csr.arc_positions`)
locates every deleted arc and every insertion point, and the new
adjacency is one ``np.delete`` plus one ``np.insert`` over the old one.
No-op detection in :meth:`VersionedGraph.effective_delta` is the same
search, and its positions feed the splice.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .. import obs
from ..errors import GraphDeltaError
from ..graph.csr import Graph, arc_positions
from .delta import GraphDelta

__all__ = ["VersionedGraph", "edge_set_hash", "edge_set_token", "stamp_epoch_digest"]

_MASK64 = (1 << 64) - 1
#: One seed per hash lane; each lane is splitmix64 of ``key ^ seed``.
_LANE_SEEDS = (np.uint64(0), np.uint64(0x5851F42D4C957F2D))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, elementwise over uint64 (wrapping)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def edge_set_hash(edges: np.ndarray) -> tuple[int, int]:
    """Additive 128-bit hash of an edge set: two 64-bit lanes.

    ``edges`` is an ``(k, 2)`` array of ``u < v`` rows (a canonical
    delta side, or :meth:`~repro.graph.csr.Graph.edge_array`).  Each edge
    is keyed ``(u << 32) | v`` (ids below ``2**32``), mixed by splitmix64
    in two independently seeded lanes, and each lane is summed mod
    ``2**64``.  The sum makes the hash order-free and lets a delta update
    it in O(Δ) (:func:`_advance_hash`); it does not depend on the vertex
    count, so isolated growth leaves it alone.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2).astype(np.uint64)
    keys = (pairs[:, 0] << np.uint64(32)) | pairs[:, 1]
    return tuple(int(_splitmix64(keys ^ seed).sum(dtype=np.uint64)) for seed in _LANE_SEEDS)


def _advance_hash(
    edge_hash: tuple[int, int], insert: np.ndarray, delete: np.ndarray
) -> tuple[int, int]:
    """The edge-set hash after a delta: add the inserts, subtract the deletes."""
    added, removed = edge_set_hash(insert), edge_set_hash(delete)
    return tuple((h + a - r) & _MASK64 for h, a, r in zip(edge_hash, added, removed))


def edge_set_token(num_vertices: int, edge_hash: tuple[int, int]) -> str:
    """The content part of an epoch stamp: ``"<n>:<32 hex digits>"``."""
    lo, hi = edge_hash
    return f"{int(num_vertices)}:{lo:016x}{hi:016x}"


def stamp_epoch_digest(lineage: str, epoch: int, content_token: str) -> str:
    """Digest for an epoch snapshot: lineage + epoch folded over content.

    ``content_token`` is the snapshot's :func:`edge_set_token` — the
    vertex count plus the O(Δ)-maintained :func:`edge_set_hash` — so the
    stamp costs nothing per epoch beyond the delta itself.  Deterministic,
    so any process that can see the lineage root and replay the delta
    stream derives the same identity — which is what lets the artifact
    store hydrate epoch bundles written by another process, and lets
    :meth:`~repro.index.store.ArtifactStore.load_latest_epoch` re-derive
    the token from a record's arrays to verify it.
    """
    h = hashlib.sha256()
    h.update(f"epoch|{lineage}|{epoch}|{content_token}".encode())
    return h.hexdigest()


class VersionedGraph:
    """An immutable graph snapshot plus its position in a delta lineage.

    Attributes
    ----------
    graph:
        The epoch's immutable CSR snapshot.  For ``epoch > 0`` its
        :meth:`~repro.graph.csr.Graph.content_digest` is preset to the
        epoch-stamped digest.
    epoch:
        0 for a freshly wrapped graph; +1 per applied delta.
    lineage:
        Content digest of the epoch-0 graph — constant along the chain,
        used to group epoch records in the store.
    parent_digest:
        Digest of the previous epoch's snapshot (``None`` at epoch 0).
    applied:
        The *effective* :class:`~repro.dynamic.GraphDelta` that produced
        this epoch (``None`` at epoch 0).
    """

    __slots__ = ("graph", "epoch", "lineage", "parent_digest", "applied", "_edge_hash")

    def __init__(
        self,
        graph: Graph,
        *,
        epoch: int = 0,
        lineage: str | None = None,
        parent_digest: str | None = None,
        applied: GraphDelta | None = None,
        edge_hash: tuple[int, int] | None = None,
    ):
        self.graph = graph
        self.epoch = int(epoch)
        self.lineage = lineage if lineage is not None else graph.content_digest()
        self.parent_digest = parent_digest
        self.applied = applied
        self._edge_hash = edge_hash

    # ------------------------------------------------------------------
    @property
    def digest(self) -> str:
        """The snapshot's (epoch-stamped, for epoch > 0) content digest."""
        return self.graph.content_digest()

    @property
    def edge_hash(self) -> tuple[int, int]:
        """:func:`edge_set_hash` of the snapshot's edges.

        Carried from epoch to epoch in O(Δ); computed from
        ``edge_array()`` only once, for an epoch-0 or resumed snapshot
        constructed without it.
        """
        if self._edge_hash is None:
            self._edge_hash = edge_set_hash(self.graph.edge_array())
        return self._edge_hash

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    # ------------------------------------------------------------------
    def effective_delta(self, delta: GraphDelta, *, strict: bool = True) -> GraphDelta:
        """The subset of ``delta`` that actually changes this snapshot.

        An insert of an edge already present, or a delete of one that is
        missing (including out-of-range endpoints), is a *no-op edge*.
        Under ``strict`` (the default) any no-op edge raises
        :class:`~repro.errors.GraphDeltaError` with counts; otherwise
        no-ops are silently dropped.  The returned delta is already
        canonical (the input was), so it is built directly.
        """
        return self._effective(delta, strict)[0]

    def _effective(
        self, delta: GraphDelta, strict: bool
    ) -> tuple[GraphDelta, np.ndarray, np.ndarray]:
        """:meth:`effective_delta` plus the splice positions of its arcs.

        One arc search covers both sides of the delta and both directions
        of every edge; the positions of the surviving arcs are returned
        for :func:`_rebuild_csr` (see :func:`_arc_lookup` for the layout).
        """
        ins_found, ins_pos = _arc_lookup(self.graph, delta.insert)
        del_found, del_pos = _arc_lookup(self.graph, delta.delete)
        ins_noop, del_noop = ins_found, ~del_found
        if strict and (ins_noop.any() or del_noop.any()):
            raise GraphDeltaError(
                f"delta is not applicable at epoch {self.epoch}: "
                f"{int(ins_noop.sum())} insert(s) already present, "
                f"{int(del_noop.sum())} delete(s) missing"
            )
        if not ins_noop.any() and not del_noop.any():
            return delta, ins_pos, del_pos
        ins_keep, del_keep = ~ins_noop, ~del_noop
        eff = GraphDelta(delta.insert[ins_keep], delta.delete[del_keep], delta.num_vertices)
        return eff, ins_pos[np.tile(ins_keep, 2)], del_pos[np.tile(del_keep, 2)]

    def apply(self, delta: GraphDelta, *, strict: bool = True) -> "VersionedGraph":
        """Apply a delta and return the next epoch's :class:`VersionedGraph`.

        The wrapped snapshot is a new immutable ``Graph`` whose digest is
        preset to :func:`stamp_epoch_digest`; this object is unchanged.
        """
        eff, ins_pos, del_pos = self._effective(delta, strict)
        with obs.span(
            "dynamic:apply", epoch=self.epoch + 1,
            inserted=len(eff.insert), deleted=len(eff.delete),
        ):
            n_new = eff.min_num_vertices(self.graph.num_vertices)
            indptr, indices = _rebuild_csr(
                self.graph, eff.insert, ins_pos, eff.delete, del_pos, n_new
            )
            epoch = self.epoch + 1
            edge_hash = _advance_hash(self.edge_hash, eff.insert, eff.delete)
            stamped = stamp_epoch_digest(
                self.lineage, epoch, edge_set_token(n_new, edge_hash)
            )
            graph = Graph.from_arrays(indptr, indices, False, digest=stamped)
        return VersionedGraph(
            graph, epoch=epoch, lineage=self.lineage,
            parent_digest=self.digest, applied=eff, edge_hash=edge_hash,
        )

    def __repr__(self) -> str:
        return (
            f"VersionedGraph(epoch={self.epoch}, n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, lineage={self.lineage[:12]})"
        )


def _arc_heads_tails(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both arcs of every ``(u, v)`` row: heads ``[u..., v...]``, tails ``[v..., u...]``."""
    return pairs.T.ravel(), pairs[:, ::-1].T.ravel()


def _arc_lookup(graph: Graph, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(present, positions)`` of the canonical edges ``pairs`` in ``graph``.

    ``positions`` has ``2k`` entries, the arcs ``u -> v`` then ``v -> u``
    (:func:`_arc_heads_tails`): each is the arc's position in
    ``graph.indices`` when present and its insertion point otherwise.
    Heads beyond the graph read as one empty row at the very end, which
    is where their arcs go.  ``present`` is per edge.
    """
    n, indices = graph.num_vertices, graph.indices
    heads, tails = _arc_heads_tails(pairs)
    indptr = np.append(graph.indptr, graph.indptr[-1])
    rows = np.minimum(heads, n)
    pos = arc_positions(indptr, indices, rows, tails)
    found = pos < indptr[rows + 1]
    found[found] = indices[pos[found]] == tails[found]
    return found[: len(pairs)], pos


def _rebuild_csr(
    graph: Graph, insert: np.ndarray, ins_pos: np.ndarray,
    delete: np.ndarray, del_pos: np.ndarray, n_new: int,
) -> tuple[np.ndarray, np.ndarray]:
    """New CSR arrays after applying an effective delta, by splicing.

    ``ins_pos`` / ``del_pos`` are the :func:`_arc_lookup` positions of
    the delta's arcs in the old ``indices``: insertion points for the
    inserted arcs, the arcs themselves for the deleted ones.  The new
    adjacency is the old one with the deleted arcs removed
    (``np.delete``) and the inserted arcs, lexsorted by ``(row, col)``,
    put in at their insertion points shifted left by the deletions before
    them (one ``np.insert``, which keeps equal points in input order).
    Row pointers come from ``bincount`` degree deltas.  Every step is
    ``O(Δ log Δ)`` or a memcpy-speed ``O(n + m)`` array pass; nothing
    loops over rows.
    """
    ins_heads, ins_tails = _arc_heads_tails(insert)
    del_heads, _ = _arc_heads_tails(delete)
    order = np.lexsort((ins_tails, ins_heads))
    del_pos = np.sort(del_pos)
    ins_at = ins_pos[order]
    ins_at -= np.searchsorted(del_pos, ins_at)
    indices = np.insert(np.delete(graph.indices, del_pos), ins_at, ins_tails[order])

    deg = np.zeros(n_new, dtype=np.int64)
    deg[: graph.num_vertices] = graph.degrees()
    deg += np.bincount(ins_heads, minlength=n_new)
    deg -= np.bincount(del_heads, minlength=n_new)
    indptr = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return indptr, indices
