"""Primary values of a subgraph — paper Section II-C.

Most community scoring metrics are functions of five *primary values* of the
subgraph ``S`` under evaluation (plus the global graph totals):

* ``n(S)`` — number of vertices,
* ``m(S)`` — number of internal edges,
* ``b(S)`` — number of boundary edges (exactly one endpoint in ``S``),
* ``Δ(S)`` — number of triangles,
* ``t(S)`` — number of triplets (paths of length two, counted per centre).

:class:`PrimaryColumns` holds them for many vertex sets at once (every
level set, or every forest node), one array per value: the form every
metric scores (:mod:`repro.engine.metrics`).  :class:`PrimaryValues` is the
record of one set, and :func:`primary_values` computes it from scratch for
an arbitrary vertex set — this is the work the paper's baselines repeat
once per k, and the incremental algorithms avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

from ..graph.csr import Graph
from ..graph.views import induced_subgraph, subgraph_counts
from .triangles import count_triangles_and_triplets

__all__ = ["PrimaryValues", "PrimaryColumns", "GraphTotals", "primary_values", "graph_totals"]


@dataclass(frozen=True)
class PrimaryValues:
    """The five primary values of one subgraph.

    ``num_triangles``/``num_triplets`` are ``None`` when the producing
    algorithm was not asked to count triangles (they cost ``O(m^1.5)``
    rather than ``O(m)``).
    """

    num_vertices: int
    num_edges: int
    num_boundary: int
    num_triangles: int | None = None
    num_triplets: int | None = None

    @property
    def has_triangles(self) -> bool:
        """Whether triangle/triplet counts are available."""
        return self.num_triangles is not None

    def __post_init__(self) -> None:
        if self.num_vertices < 0 or self.num_edges < 0 or self.num_boundary < 0:
            raise ValueError("primary values must be non-negative")


@dataclass(frozen=True)
class PrimaryColumns:
    """The primary values of many vertex sets, one array entry per set.

    Integer columns for the edge-count families; the weighted family fills
    ``num_edges`` and ``num_boundary`` with float weight sums (``W(S)`` and
    ``Wb(S)``).  ``num_triangles``/``num_triplets`` are ``None`` when the
    producer did not count triangles.  :attr:`records` turns the columns
    into one :class:`PrimaryValues` per set on first use, so metrics that
    share a columns record share its records too.
    """

    num_vertices: np.ndarray
    num_edges: np.ndarray
    num_boundary: np.ndarray
    num_triangles: np.ndarray | None = None
    num_triplets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.num_vertices)

    @cached_property
    def records(self) -> tuple[PrimaryValues, ...]:
        """One :class:`PrimaryValues` per set, built from the columns once."""
        present = (getattr(self, f.name) for f in fields(self))
        return tuple(map(PrimaryValues, *(c.tolist() for c in present if c is not None)))

    @classmethod
    def of(cls, records: Iterable[PrimaryValues]) -> "PrimaryColumns":
        """Columns of ``records`` (which must agree on having triangles)."""
        records = tuple(records)
        counted = bool(records) and records[0].has_triangles
        names = [f.name for f in fields(PrimaryValues)][:5 if counted else 3]
        columns = cls(*(np.asarray([getattr(pv, name) for pv in records]) for name in names))
        columns.__dict__["records"] = records
        return columns


@dataclass(frozen=True)
class GraphTotals:
    """Global totals of the host graph, needed by relative metrics.

    ``cut_ratio`` needs the global vertex count and ``modularity`` the global
    edge count; passing them separately keeps :class:`PrimaryValues` strictly
    about the subgraph.
    """

    num_vertices: int
    num_edges: int


def graph_totals(graph: Graph) -> GraphTotals:
    """Totals record for ``graph``."""
    return GraphTotals(graph.num_vertices, graph.num_edges)


def primary_values(
    graph: Graph, vertices: Iterable[int], *, count_triangles: bool = False
) -> PrimaryValues:
    """Compute the primary values of the subgraph induced by ``vertices``.

    This is the from-scratch path (used by baselines, tests and one-off
    queries): ``O(vol(S))`` for the edge counts plus ``O(m_S^1.5)`` when
    ``count_triangles`` is set.
    """
    vertices = np.asarray(
        vertices if isinstance(vertices, np.ndarray) else list(vertices), dtype=np.int64
    )
    n_s, m_s, b_s = subgraph_counts(graph, vertices)
    triangles = triplets = None
    if count_triangles:
        sub, _ = induced_subgraph(graph, vertices)
        triangles, triplets = count_triangles_and_triplets(sub)
    return PrimaryValues(n_s, m_s, b_s, triangles, triplets)
