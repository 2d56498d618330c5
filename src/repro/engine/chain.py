"""The artifact chain: each best-k artifact's builder, declared once.

Both problems, for every family, run over one chain: ``decompose`` ->
``levels`` -> ``ordering`` (Algorithm 1), then ``totals`` /
``level_totals`` / ``triangles`` / ``triplets`` / ``level_triangles``
(Algorithms 2/3, Problem 1) and ``forest`` / ``node_totals`` /
``node_triangles`` (Algorithms 4/5, Problem 2).  :class:`ArtifactChain`
fetches each through a memo ``get(name, build)``: the free functions pass
a plain dict, the shared :class:`~repro.index.BestKIndex` its own cache,
which times, persists and invalidates the same artifacts.  A builder
fetches its prerequisites only when it runs, so a remembered (or
store-hydrated) artifact never pulls in the ones it was built from.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import MetricRequirementError
from .forest import (
    LevelForest,
    LevelNodeScores,
    node_totals,
    node_triangles,
    node_values,
    score_nodes,
    shell_sweep,
)
from .levels import (
    LevelOrdering,
    LevelSetScores,
    accumulate_level_totals,
    cumulate_from_top,
    scores_from_level_totals,
    triangle_level_increments,
)
from .triangles import triangles_by_min_rank_vertex, triplet_charges

__all__ = ["ARTIFACTS", "ArtifactChain"]

#: Every artifact name the chain builds.
ARTIFACTS = (
    "decompose", "levels", "ordering", "totals", "level_totals",
    "triangles", "triplets", "level_triangles",
    "forest", "node_totals", "node_triangles",
)


def _dict_memo(known: dict) -> Callable:
    def get(name, build):
        if name not in known:
            known[name] = build()
        return known[name]

    return get


class ArtifactChain:
    """One family's artifacts on one graph, each built through ``get``.

    ``params`` are the family's keyword parameters (the weighted family's
    ``edge_weights=`` / ``num_levels=``).  Without ``get`` the memo is a
    plain dict seeded with the non-``None`` entries of ``known`` (an
    artifact the caller already holds, keyed by name).  ``base`` is an
    ``(ordering, touched)`` pair from an earlier snapshot that the
    ``ordering`` build may patch from (the family's
    :meth:`~repro.engine.HierarchyFamily.ordering` hook decides).
    """

    def __init__(
        self, graph, family, params: dict | None = None, get: Callable | None = None,
        *, backend=None, base=None, known: dict | None = None,
    ):
        self.graph = graph
        self.family = family
        self.params = params or {}
        self.backend = backend
        self.base = base
        if get is None:
            get = _dict_memo({k: v for k, v in (known or {}).items() if v is not None})
        self.get = get

    # -- the shared prefix -----------------------------------------------
    def decompose(self):
        """The family's decomposition."""
        return self.get("decompose", lambda: self.family.decompose(
            self.graph, backend=self.backend, **self.params
        ))

    def levels(self) -> np.ndarray:
        """Per-vertex integer levels."""
        return self.get("levels", lambda: self.family.levels(self.decompose(), **self.params))

    def ordering(self) -> LevelOrdering:
        """Algorithm 1 over the levels."""
        def build():
            base, touched = self.base or (None, None)
            return self.family.ordering(
                self.graph, self.decompose(), self.levels(), base=base, touched=touched
            )

        return self.get("ordering", build)

    def totals(self):
        """Host-graph totals passed to ``metric.score``."""
        return self.get("totals", lambda: self.family.totals(
            self.graph, self.decompose(), **self.params
        ))

    def charges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex ``(2*inside, boundary)`` charges; O(n), not memoized."""
        return self.family.charges(
            self.graph, self.decompose(), self.levels(), self.ordering(), **self.params
        )

    def thresholds(self) -> np.ndarray | None:
        """Per-level thresholds of a quantised family, else ``None``."""
        levels = self.levels()
        max_level = int(levels.max()) if len(levels) else 0
        return self.family.thresholds(self.decompose(), max_level, **self.params)

    def _require_triangles(self) -> None:
        if not self.family.supports_triangles:
            raise MetricRequirementError(
                f"family {self.family.name!r} does not support triangle-based metrics"
            )

    def triangles(self) -> np.ndarray:
        """Per-vertex min-rank triangle charges: the O(m^1.5) pass."""
        self._require_triangles()
        return self.get("triangles", lambda: triangles_by_min_rank_vertex(
            self.ordering(), backend=self.backend
        ))

    def triplets(self) -> np.ndarray:
        """Per-vertex triplet charges, summed per shell and per forest node."""
        self._require_triangles()
        return self.get("triplets", lambda: triplet_charges(
            self.ordering(), backend=self.backend
        ))

    # -- Problem 1: level sets ---------------------------------------------
    def level_totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 2's ``(num_k, twice_in_k, out_k)`` of every level set."""
        def build():
            ordering = self.ordering()
            return accumulate_level_totals(*self.charges(), ordering.order, ordering.level_start)

        return self.get("level_totals", build)

    def level_triangles(self) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3's triangle and triplet counts of every level set."""
        self._require_triangles()

        def build():
            ordering = self.ordering()
            tri_new, trip_new = triangle_level_increments(
                ordering, ordering.order, ordering.level_start,
                charges=self.triangles(), triplets=self.triplets(),
            )
            return cumulate_from_top(tri_new), cumulate_from_top(trip_new)

        return self.get("level_triangles", build)

    def set_scores(self, metric) -> LevelSetScores:
        """Scores of every level set under a resolved ``metric``."""
        fam = self.family
        num_k, twice_in_k, out_k = self.level_totals()
        tri_k = trip_k = None
        if fam.metric_requires_triangles(metric):
            tri_k, trip_k = self.level_triangles()
        return scores_from_level_totals(
            metric, self.totals(), num_k, twice_in_k, out_k, tri_k, trip_k,
            make_values=fam.make_values, thresholds=self.thresholds(),
        )

    # -- Problem 2: connected level sets -----------------------------------
    def forest(self) -> LevelForest:
        """Algorithm 4: the level forest, swept off the ordering."""
        return self.get("forest", lambda: LevelForest(
            *shell_sweep(self.ordering()), self.graph.num_vertices
        ))

    def node_totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 5's ``(2*in, out, num)`` of every forest node's component."""
        return self.get("node_totals", lambda: node_totals(self.forest(), *self.charges()))

    def node_triangles(self) -> tuple[np.ndarray, np.ndarray]:
        """Triangle and triplet counts of every forest node's component."""
        self._require_triangles()
        return self.get("node_triangles", lambda: node_triangles(
            self.forest(), self.triangles(), self.triplets()
        ))

    def node_values(self, with_triangles: bool) -> tuple:
        """Every forest node's primary values, shared by all metrics."""
        tri_trip = self.node_triangles() if with_triangles else ()
        return node_values(self.family, *self.node_totals(), *tri_trip)

    def node_scores(self, metric, values: tuple | None = None) -> LevelNodeScores:
        """Scores of every forest node under a resolved ``metric``.

        ``values`` are :meth:`node_values` when the caller keeps them.
        """
        if values is None:
            values = self.node_values(self.family.metric_requires_triangles(metric))
        return score_nodes(metric, self.totals(), self.forest(), values)
