"""Batched edge deltas — the unit of graph mutation.

A :class:`GraphDelta` is a validated, canonicalised batch of undirected
edge insertions and deletions (plus an optional vertex-count floor for
isolated growth).  Construction via :meth:`GraphDelta.from_edges`:

* rejects self loops, negative ids and insert/delete overlap;
* canonicalises every pair to ``u < v`` and deduplicates;
* freezes the arrays (read-only int64 ``(k, 2)``).

A delta says nothing about the graph it will be applied to — whether an
insert is already present, or a delete missing, is decided at apply time
by :meth:`repro.dynamic.VersionedGraph.effective_delta` (strictly, or by
dropping no-ops).  Keeping validation in two stages lets the same delta
object be replayed against any snapshot of a lineage.
"""

from __future__ import annotations

import gzip
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import GraphDeltaError
from ..graph.csr import sorted_arc_keys

__all__ = ["GraphDelta", "edges_from_file"]


def _canonical(edges, role: str) -> np.ndarray:
    """Edges as a deduplicated, lexsorted ``(k, 2)`` int64 array with u < v."""
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        out = np.empty((0, 2), dtype=np.int64)
        out.setflags(write=False)
        return out
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphDeltaError(f"{role} edges must be (u, v) pairs")
    if pairs.min() < 0:
        raise GraphDeltaError(f"{role} edges contain a negative vertex id")
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise GraphDeltaError(f"{role} edges contain a self loop")
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    n = int(hi.max()) + 1
    keys = sorted_arc_keys(np.minimum(pairs[:, 0], pairs[:, 1]), hi, n)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    out = np.ascontiguousarray(np.column_stack([keys // n, keys % n]))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GraphDelta:
    """One validated batch of edge insertions/deletions.

    Build through :meth:`from_edges`; the direct constructor trusts its
    arrays (internal code paths hand it already-canonical slices).

    Attributes
    ----------
    insert / delete:
        Read-only ``(k, 2)`` int64 arrays, rows ``u < v``, lexsorted and
        unique, with the two sets disjoint.
    num_vertices:
        Optional floor for the vertex count after application — the only
        way to grow a graph by *isolated* vertices (edge endpoints beyond
        the current range grow it implicitly).
    """

    insert: np.ndarray
    delete: np.ndarray
    num_vertices: int | None = None

    @classmethod
    def from_edges(cls, insert=(), delete=(), *, num_vertices: int | None = None) -> "GraphDelta":
        """Validate, canonicalise and deduplicate raw edge iterables."""
        ins = _canonical(insert, "insert")
        dele = _canonical(delete, "delete")
        if len(ins) and len(dele):
            merged = np.concatenate([ins, dele])
            if len(np.unique(merged, axis=0)) < len(merged):
                raise GraphDeltaError("insert and delete sets overlap")
        if num_vertices is not None and num_vertices < 0:
            raise GraphDeltaError("num_vertices must be non-negative")
        return cls(ins, dele, None if num_vertices is None else int(num_vertices))

    # ------------------------------------------------------------------
    @property
    def num_changes(self) -> int:
        """Total number of edge mutations in the batch."""
        return len(self.insert) + len(self.delete)

    @property
    def is_empty(self) -> bool:
        """Whether the delta mutates no edges (growth-only deltas count)."""
        return self.num_changes == 0

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of every mutated edge."""
        if self.is_empty:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([self.insert.ravel(), self.delete.ravel()]))

    def min_num_vertices(self, current: int) -> int:
        """Vertex count the graph must have after this delta applies."""
        n = max(int(current), int(self.num_vertices or 0))
        if self.num_changes:
            n = max(n, int(self.touched_vertices()[-1]) + 1)
        return n

    def __repr__(self) -> str:
        grow = "" if self.num_vertices is None else f", n>={self.num_vertices}"
        return f"GraphDelta(+{len(self.insert)}, -{len(self.delete)}{grow})"


def edges_from_file(path: str | Path) -> np.ndarray:
    """Integer edge pairs from a whitespace-separated file (gzip ok).

    One ``u v`` pair per line; blank lines and ``#`` comments are skipped.
    ``"-"`` reads from standard input, so a delta can be piped straight
    into ``bestk apply --edges -``.  Returns a raw ``(k, 2)`` int64 array
    — validation/canonicalisation happens in
    :meth:`GraphDelta.from_edges`.
    """
    if str(path) == "-":
        return _parse_edges(sys.stdin, "<stdin>")
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return _parse_edges(fh, str(path))


def _parse_edges(fh, label: str) -> np.ndarray:
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(fh, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise GraphDeltaError(f"{label}:{lineno}: expected 'u v', got {text!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphDeltaError(f"{label}:{lineno}: non-integer endpoint") from exc
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
