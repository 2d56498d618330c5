"""Mutable graph builder that cleans arbitrary edge input.

Real edge lists are messy: vertex ids are sparse or non-numeric, edges are
duplicated (sometimes in both orientations), and self loops appear.  The
algorithms in this package require the clean contract of
:class:`repro.graph.csr.Graph` — dense ids ``0..n-1``, no duplicates, no self
loops — so :class:`GraphBuilder` sits between raw input and the CSR
representation.

Example
-------
>>> b = GraphBuilder()
>>> b.add_edge("alice", "bob")
>>> b.add_edge("bob", "alice")      # duplicate in the other orientation
>>> b.add_edge("bob", "bob")        # self loop, silently dropped
>>> g = b.build()
>>> g.num_vertices, g.num_edges
(2, 1)
>>> b.label_of(0)
'alice'
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from .csr import Graph, simple_csr

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates edges with arbitrary hashable labels and builds a Graph.

    The builder remembers, per run, how many self loops and duplicate edges
    were discarded (``num_self_loops_dropped`` / ``num_duplicates_dropped``
    are filled in by :meth:`build`), which is useful when ingesting public
    datasets of unknown hygiene.
    """

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        #: Number of self loops dropped by the last :meth:`build` call.
        self.num_self_loops_dropped: int = 0
        #: Number of duplicate edges dropped by the last :meth:`build` call.
        self.num_duplicates_dropped: int = 0

    # ------------------------------------------------------------------
    def vertex_id(self, label: Hashable) -> int:
        """Return the dense id for ``label``, interning it if new."""
        vid = self._ids.get(label)
        if vid is None:
            vid = len(self._labels)
            self._ids[label] = vid
            self._labels.append(label)
        return vid

    def label_of(self, vertex_id: int) -> Hashable:
        """Return the original label of a dense vertex id."""
        return self._labels[vertex_id]

    @property
    def labels(self) -> list[Hashable]:
        """Original labels indexed by dense vertex id."""
        return list(self._labels)

    @property
    def num_vertices(self) -> int:
        """Vertices interned so far."""
        return len(self._labels)

    # ------------------------------------------------------------------
    def add_vertex(self, label: Hashable) -> int:
        """Ensure ``label`` exists as a vertex (possibly isolated)."""
        return self.vertex_id(label)

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Record an undirected edge between two labels.

        Self loops and duplicates are tolerated here and removed at
        :meth:`build` time, so ingestion stays a single streaming pass.
        """
        self._src.append(self.vertex_id(u))
        self._dst.append(self.vertex_id(v))

    def add_edges(self, edges: Iterable[tuple[Hashable, Hashable]]) -> None:
        """Record many undirected edges."""
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    def build(self) -> Graph:
        """Deduplicate, drop self loops, and return the CSR graph.

        The builder remains usable afterwards (more edges can be added and
        ``build`` called again).
        """
        graph, self.num_self_loops_dropped, self.num_duplicates_dropped = simple_csr(
            np.asarray(self._src, dtype=np.int64),
            np.asarray(self._dst, dtype=np.int64),
            len(self._labels),
        )
        return graph
