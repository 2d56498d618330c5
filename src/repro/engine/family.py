"""Hierarchy families — the pluggable face of the Section VI-B claim.

The paper proves its best-k machinery for core decomposition and then
observes (Section VI-B) that nothing in Algorithms 1-3 is specific to
coreness: any *nested* decomposition — one that assigns each vertex a
level such that the k-th subgraph is induced by ``{v : level(v) >= k}`` —
plugs in unchanged.  This module turns that observation into an API:

* :class:`HierarchyFamily` — the protocol a decomposition implements
  (decompose → levels → charges → values), with defaults covering the
  common unweighted case so a new family is ~30 lines;
* :func:`register_family` / :func:`get_family` / :func:`available_families`
  — the family registry, mirroring the metric (:mod:`repro.engine.metrics`)
  and kernel (:mod:`repro.kernels`) registries;
* :func:`family_set_scores` / :func:`baseline_family_set_scores` /
  :func:`best_level_set` — THE generic implementations of Problem 1.
  Every family is scored by passing its name (``best_level_set(graph,
  "truss", metric)``, ``edge_weights=`` for ``weighted``); only the
  paper's own k-core names (``kcore_set_scores``, ``best_kcore_set``, ...)
  remain, each a single call into these functions.

Built-in families (``core``, ``truss``, ``weighted``, ``ecc``) live in
their packages as ``repro.<pkg>.family`` modules and are imported lazily
on first lookup, so the engine layer never depends on a family package
statically — the import-layering contract (``scripts/check_imports.py``)
holds in both directions.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..errors import UnknownFamilyError
from .levels import (
    LevelOrdering,
    LevelSetScores,
    level_ordering,
    scores_from_level_totals,
    unweighted_level_charges,
)
from .metrics import PAPER_METRICS, get_metric
from .primary import PrimaryColumns, graph_totals, primary_values

__all__ = [
    "HierarchyFamily",
    "BestLevelResult",
    "register_family",
    "get_family",
    "available_families",
    "family_set_scores",
    "baseline_family_set_scores",
    "best_level_set",
    "level_result",
    "RAW_LEVELS",
]


class HierarchyFamily:
    """One nested decomposition, described by hooks the engine calls.

    Subclasses override :meth:`decompose` and :meth:`levels` (the only two
    abstract hooks) plus whichever defaults do not fit; every hook receives
    the family-specific keyword ``**params`` (e.g. ``edge_weights=`` /
    ``num_levels=`` for the weighted family) so the generic entry points
    can thread them through without knowing their names.

    Class attributes double as the registry metadata surfaced by
    ``bestk families`` and the README family table.
    """

    #: Registry key (``core``, ``truss``, ...); must be unique.
    name: str = ""
    #: Human-readable title for CLI / docs listings.
    title: str = ""
    #: Vocabulary of the level parameter (``k`` for cores, ``s`` for the
    #: weighted family's strength thresholds).
    level_label: str = "k"
    #: Paper section that introduces this hierarchy.
    paper_section: str = ""
    description: str = ""
    #: Whether Algorithm 3's triangle/triplet path applies (it needs the
    #: unweighted primary-values vocabulary).
    supports_triangles: bool = True
    #: Metric used when the caller does not name one.
    default_metric: str = "average_degree"
    #: Metrics iterated by the cross-metric batch APIs / ``--all-metrics``.
    batch_metrics: tuple[str, ...] = PAPER_METRICS
    #: Whether the family implements the persistence hooks
    #: (:meth:`dump_decomposition` / :meth:`load_decomposition`) and may
    #: therefore be written to / hydrated from an on-disk artifact store.
    supports_store: bool = False
    #: Whether this family's levels are k-core numbers that
    #: :func:`repro.dynamic.incremental_core_numbers` can repair across a
    #: graph delta.  Families that leave this ``False`` declare
    #: rebuild-on-change: :meth:`repro.index.BestKIndex.apply` invalidates
    #: their artifacts instead of patching them.
    supports_incremental: bool = False

    # -- abstract hooks -------------------------------------------------

    def decompose(self, graph, *, backend=None, **params):
        """Run the decomposition; the result is this family's cacheable artifact."""
        raise NotImplementedError

    def levels(self, decomposition, **params) -> np.ndarray:
        """Per-vertex non-negative integer levels of a decomposition."""
        raise NotImplementedError

    # -- metric vocabulary ----------------------------------------------

    def resolve_metric(self, metric):
        """Resolve a metric name/abbreviation in this family's registry."""
        return get_metric(metric)

    def metric_requires_triangles(self, metric) -> bool:
        """Whether scoring ``metric`` needs the Algorithm 3 triangle path."""
        return bool(getattr(metric, "requires_triangles", False))

    # -- scoring hooks ---------------------------------------------------

    def totals(self, graph, decomposition, **params):
        """Host-graph totals record every metric is scored against."""
        return graph_totals(graph)

    def ordering(
        self, graph, decomposition, levels: np.ndarray, *, base=None, touched=None
    ) -> LevelOrdering:
        """Algorithm 1 structure for the level array.

        ``base``/``touched`` are an earlier snapshot's ordering and the
        vertices the delta since touched.  Only a family with
        ``supports_incremental`` is handed them, after
        :meth:`~repro.index.BestKIndex.apply` repaired its decomposition;
        the core family overrides this to patch from them and to reuse the
        decomposition's vertex order, the default rebuilds.
        """
        return level_ordering(graph, levels)

    def charges(self, graph, decomposition, levels, ordering, **params):
        """Per-vertex ``(2*inside, boundary)`` charges at each vertex's level."""
        return unweighted_level_charges(ordering)

    def columns(
        self, num, twice_inside, boundary, triangles=None, triplets=None
    ) -> PrimaryColumns:
        """Primary-value columns of many sets from their accumulated charges.

        One row per level set (Problem 1) or forest node (Problem 2); the
        arguments are aligned arrays of the accumulated ``(num, 2*inside,
        boundary)`` charges and, when counted, triangles and triplets.
        """
        return PrimaryColumns(num, twice_inside // 2, boundary, triangles, triplets)

    def thresholds(self, decomposition, max_level: int, **params):
        """Per-level thresholds for quantised hierarchies, else ``None``."""
        return None

    # -- membership / baseline hooks -------------------------------------

    def members(self, graph, decomposition, levels, k: int, **params) -> np.ndarray:
        """Sorted vertex set of level set k (``{v : level(v) >= k}``)."""
        return np.flatnonzero(levels >= k)

    def subset_values(self, graph, decomposition, vertices, *, count_triangles=False, **params):
        """From-scratch primary values of an arbitrary vertex set."""
        return primary_values(graph, vertices, count_triangles=count_triangles)

    # -- caching hooks ---------------------------------------------------

    def cache_token(self, **params):
        """Identity of the parametrisation for index caching.

        ``None`` means the family's artifacts depend only on the graph (the
        common case); the weighted family returns a token derived from the
        edge-weight array and quantisation so the index can invalidate.
        """
        return None

    # -- persistence hooks ------------------------------------------------

    def store_token(self, **params) -> str | None:
        """Cross-process identity of the parametrisation for the disk store.

        Unlike :meth:`cache_token` — which may use cheap object identity,
        valid only within one process — this must be *content-based* and
        stable across processes and runs: it is hashed into the on-disk
        bundle key by :mod:`repro.index.store`.  ``None`` means the
        family's artifacts depend only on the graph.
        """
        return None

    def dump_decomposition(self, decomposition) -> dict[str, np.ndarray] | None:
        """Arrays that reconstruct :meth:`decompose`'s result, or ``None``.

        Families with ``supports_store`` return a ``{field: array}`` dict
        (all fields 1-D/2-D numpy arrays); the default ``None`` keeps a
        family in-memory only — the store and the parallel payloads then
        skip it silently.
        """
        return None

    def load_decomposition(self, graph, arrays: dict[str, np.ndarray], **params):
        """Rebuild a decomposition from :meth:`dump_decomposition` arrays.

        ``arrays`` may hold read-only memory maps; implementations must not
        write into them.  ``**params`` carries the family parametrisation
        for state not stored on disk (the weighted family's
        ``edge_weights``).
        """
        raise NotImplementedError(
            f"family {self.name!r} does not support persisted decompositions"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, HierarchyFamily] = {}

#: Built-in family -> defining module, imported lazily on first lookup so
#: the engine never *statically* imports a family package.
_BUILTIN_MODULES = {
    "core": "repro.core.family",
    "truss": "repro.truss.family",
    "weighted": "repro.weighted.family",
    "ecc": "repro.ecc.family",
}


def register_family(family: HierarchyFamily) -> HierarchyFamily:
    """Register a hierarchy family instance under ``family.name``.

    The extension point of Section VI-B: a registered family participates
    in the generic scoring entry points, the shared
    :class:`~repro.index.BestKIndex`, and ``bestk --family`` without any
    engine change.
    """
    if not isinstance(family, HierarchyFamily):
        raise TypeError("register_family expects a HierarchyFamily instance")
    if not family.name:
        raise ValueError("family must define a non-empty name")
    if family.name in _REGISTRY:
        raise ValueError(f"hierarchy family {family.name!r} already registered")
    _REGISTRY[family.name] = family
    return family


def get_family(family: str | HierarchyFamily) -> HierarchyFamily:
    """Resolve a family by registry name, or pass through an instance."""
    if isinstance(family, HierarchyFamily):
        return family
    if family not in _REGISTRY:
        module = _BUILTIN_MODULES.get(family)
        if module is not None:
            importlib.import_module(module)
    found = _REGISTRY.get(family)
    if found is None:
        raise UnknownFamilyError(family, available_families())
    return found


def available_families() -> tuple[str, ...]:
    """Names of all registered families (built-ins included), sorted."""
    for module in _BUILTIN_MODULES.values():
        importlib.import_module(module)
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Generic scoring entry points
# ----------------------------------------------------------------------

def family_set_scores(
    graph,
    family: str | HierarchyFamily,
    metric,
    *,
    decomposition=None,
    ordering: LevelOrdering | None = None,
    index=None,
    backend=None,
    **params,
) -> LevelSetScores:
    """Score every level set of a family incrementally (Algorithm 2 / 3).

    The single optimal-path implementation for every family (the k-core
    name ``kcore_set_scores`` is one call into it): the scores of one
    :class:`~repro.engine.chain.ArtifactChain` over a throw-away memo
    seeded with ``decomposition``/``ordering`` when given.  Family
    parameters such as the weighted family's ``edge_weights=`` /
    ``num_levels=`` travel in ``**params``.  Passing a
    :class:`~repro.index.BestKIndex` as ``index`` (takes precedence over
    ``decomposition``/``ordering``) runs the same chain over the index's
    cache; results are identical.
    """
    from .chain import ArtifactChain

    fam = get_family(family)
    metric = fam.resolve_metric(metric)
    if index is not None:
        return index.level_scores(fam, metric, **params)
    with obs.span(
        "engine:set_scores", family=fam.name, metric=metric.name, phase="score"
    ):
        known = {"decompose": decomposition, "ordering": ordering}
        chain = ArtifactChain(graph, fam, params, backend=backend, known=known)
        return chain.set_scores(metric)


def baseline_family_set_scores(
    graph,
    family: str | HierarchyFamily,
    metric,
    *,
    decomposition=None,
    backend=None,
    **params,
) -> LevelSetScores:
    """The paper's from-scratch baseline, generically (Section III-A).

    Retrieves the vertex set of every level set and recomputes its primary
    values independently — the per-k cost the incremental path eliminates.
    One implementation serves every family (the weighted family overrides
    :meth:`HierarchyFamily.subset_values` for its weight sums).
    """
    fam = get_family(family)
    metric = fam.resolve_metric(metric)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    levels = fam.levels(decomposition, **params)
    max_level = int(levels.max()) if len(levels) else 0
    count_triangles = fam.metric_requires_triangles(metric)
    columns = PrimaryColumns.of(
        fam.subset_values(
            graph, decomposition, fam.members(graph, decomposition, levels, k, **params),
            count_triangles=count_triangles, **params,
        )
        for k in range(max_level + 1)
    )
    return scores_from_level_totals(
        metric, fam.totals(graph, decomposition, **params), columns,
        fam.thresholds(decomposition, max_level, **params),
    )


@dataclass(frozen=True)
class BestLevelResult:
    """The answer to "which level is best?" for one family and metric.

    Serves both problems: Problem 1 (:func:`best_level_set`) leaves
    ``node_id`` as ``None``; Problem 2
    (:func:`~repro.engine.forest.best_connected_level_set`) sets it to the
    winning forest node, whose full component is ``vertices``, and
    ``scores`` is then the node-scores record.
    """

    metric_name: str
    k: int
    score: float
    scores: LevelSetScores
    #: Vertices of the winning level set (sorted ascending).  Answers from a
    #: :class:`~repro.index.BestKIndex` hold its memoized array: read-only
    #: and shared by every metric and call with the same winner, so copy
    #: it before editing.
    vertices: np.ndarray
    #: Real-valued threshold of the winning level for quantised
    #: hierarchies (the weighted family's strength ``s``), else ``None``.
    threshold: float | None = None
    family: str = ""
    #: Winning forest node for Problem 2, else ``None``.
    node_id: int | None = None

    @property
    def s(self) -> float:
        """Threshold vocabulary: the strength for weighted, else ``k``."""
        return self.threshold if self.threshold is not None else float(self.k)

    def __repr__(self) -> str:
        extra = "" if self.threshold is None else f", s={self.threshold:.4g}"
        return (
            f"BestLevelResult(family={self.family!r}, metric={self.metric_name!r}, "
            f"k={self.k}{extra}, score={self.score:.6g}, |V|={len(self.vertices)})"
        )


def best_level_set(
    graph,
    family: str | HierarchyFamily,
    metric=None,
    *,
    decomposition=None,
    ordering: LevelOrdering | None = None,
    index=None,
    backend=None,
    use_baseline: bool = False,
    **params,
) -> BestLevelResult:
    """Find the level whose set maximises ``metric`` (Problem 1, any family).

    Ties break towards the largest level, matching the paper's Table IV.
    ``metric`` defaults to the family's :attr:`~HierarchyFamily.default_metric`.
    Set ``use_baseline=True`` to route through the from-scratch baseline
    (identical results; useful for benchmarking).  Passing a
    :class:`~repro.index.BestKIndex` as ``index`` answers through
    :meth:`~repro.index.BestKIndex.best_level`, over its cached artifacts
    (``decomposition`` and ``ordering`` are then unused).
    """
    fam = get_family(family)
    metric = fam.resolve_metric(fam.default_metric if metric is None else metric)
    if index is not None and not use_baseline:
        return index.best_level(fam, metric, **params)
    if decomposition is None:
        decomposition = fam.decompose(graph, backend=backend, **params)
    if use_baseline:
        scores = baseline_family_set_scores(
            graph, fam, metric, decomposition=decomposition, backend=backend, **params
        )
    else:
        scores = family_set_scores(
            graph, fam, metric, decomposition=decomposition, ordering=ordering,
            backend=backend, **params,
        )
    k = scores.best_k()
    vertices = fam.members(graph, decomposition, fam.levels(decomposition, **params), k, **params)
    return level_result(scores, fam.name, k, vertices)


def level_result(
    scores: LevelSetScores, family: str, k: int, vertices: np.ndarray
) -> BestLevelResult:
    """The Problem 1 answer: level ``k`` of ``scores``, whose set is ``vertices``."""
    threshold = None if scores.thresholds is None else float(scores.thresholds[k])
    return BestLevelResult(
        scores.metric.name, k, float(scores.scores[k]), scores, vertices, threshold, family
    )


class _RawLevelsFamily(HierarchyFamily):
    """Anonymous family whose "decomposition" IS a caller-supplied level array.

    Backs the historic :func:`repro.engine.level_set_scores` entry point;
    deliberately not registered (it has no decompose step to cache).
    """

    name = "levels"
    title = "raw level array"
    description = "ad-hoc caller-supplied levels; the Section VI-B generalisation itself"

    def decompose(self, graph, *, backend=None, **params):
        raise TypeError(
            "the raw-levels family has no decomposition; pass the level "
            "array via decomposition="
        )

    def levels(self, decomposition, **params) -> np.ndarray:
        return np.asarray(decomposition, dtype=np.int64)


RAW_LEVELS = _RawLevelsFamily()
