"""The shared best-k index: every expensive artifact built once, lazily.

The paper's headline claim is that one O(m) index build — O(m^1.5) when
triangles are required — amortises over the scores of *every* level set,
for *every* metric.  :class:`BestKIndex` realises that claim as an object
spanning every registered :class:`~repro.engine.HierarchyFamily`: it wraps
one graph and lazily builds, memoizes and shares a **family-keyed artifact
cache**.  Artifact keys are ``"<family>:<name>"``:

``<family>:decompose``
    The family's decomposition (peeling / truss / s-core / mincut sweep).
``<family>:levels`` / ``<family>:ordering``
    The per-vertex level array and Algorithm 1's rank-ordered adjacency
    with position tags (:class:`~repro.engine.levels.LevelOrdering`).
``<family>:totals`` / ``<family>:level_totals``
    Host-graph totals and the Algorithm 2 suffix-sum accumulation.
``<family>:triangles`` / ``<family>:triplets`` / ``<family>:level_triangles``
    Per-vertex min-rank triangle charges (the O(m^1.5) part), per-vertex
    triplet charges (O(m), cached but never persisted) and the per-level
    triangle and triplet counts — built only when a requested metric has
    ``requires_triangles``.
``<family>:forest`` / ``<family>:node_totals`` / ``<family>:node_triangles``
    Problem 2: the level forest (Algorithm 4) and every forest node's
    aggregated charges (Algorithm 5), the same per-vertex charges grouped
    per node instead of per level.

Every builder is the engine's :class:`~repro.engine.chain.ArtifactChain`,
the one the free functions run over a throw-away memo; the index passes
its own cache instead, and never imports a family package.  The truss
family's forest is therefore the vertex-level one of
:func:`~repro.engine.best_connected_level_set` (components joined by
any edge between level-k vertices), not the edge-connected trusses of
:func:`repro.truss.best_single_ktruss`.

Each artifact is built at most once, the first time a query needs it:
scoring the four O(m) paper metrics never touches the triangle pass, and
asking for six metrics costs one build plus six O(n) scoring tails instead
of six full rebuilds.  Scores themselves are memoized per
``(family, metric)`` for both problems, so the batch APIs
(:meth:`score_set_all_metrics`, :meth:`score_cores_all_metrics`) and
repeated single-metric queries are idempotent.  Parametrised families (the weighted family's
``edge_weights`` / ``num_levels``) declare a
:meth:`~repro.engine.HierarchyFamily.cache_token`; when the token changes
the family's artifacts and scores are invalidated and rebuilt.

Two optional accelerators wrap the same cache without changing any
result (both default off; ``tests/test_parallel.py`` and
``tests/test_store.py`` assert bit-identity):

* ``jobs=`` — :meth:`prebuild` fans family builds out across worker
  processes (:mod:`repro.index.worker`; each task carries the pickled
  graph); the batch APIs prebuild automatically when more than one
  worker is configured.
* ``store=`` — a :class:`repro.index.store.ArtifactStore` persists every
  eligible artifact as it is built and hydrates it back (memory-mapped)
  on the first touch of a family, so a warm process skips the build
  phase.  ``None`` defers to ``REPRO_CACHE_DIR``; pass ``False`` to
  force off.

All results are bit-identical to the from-scratch entry points
(``tests/test_index.py`` enforces this); the index is purely a performance
object.  Ablation A3 (``benchmarks/bench_ablation_index_reuse.py``)
measures the gap between one index and a fresh build per query, and
``benchmarks/bench_parallel.py`` the serial-vs-parallel gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .. import obs
from ..engine.chain import ARTIFACTS, ArtifactChain
from ..engine.family import (
    BestLevelResult,
    HierarchyFamily,
    get_family,
    level_result,
)
from ..engine.forest import LevelNodeScores, best_node_result
from ..engine.levels import LevelOrdering, LevelSetScores
from ..engine.metrics import PAPER_METRICS, Metric, get_metric
from ..engine.primary import PrimaryColumns
from ..dynamic import GraphDelta, VersionedGraph, incremental_core_numbers
from ..errors import ReproError
from ..graph.csr import Graph
from ..kernels import get_backend
from .store import hydrate_arrays, resolve_store
from .worker import build_family_artifacts, parallel_map

__all__ = ["ApplyResult", "BestKIndex"]

#: Triangle-pass artifacts; :meth:`BestKIndex.prebuild` splits them into
#: their own worker task so the O(m^1.5) pass overlaps the O(m) builds.
_TRIANGLE_ARTIFACTS = ("triangles", "level_triangles", "node_triangles")

#: Phase an artifact's build time counts towards, by its (unprefixed)
#: artifact name; everything unnamed here lands in ``other``.
_PHASE_BY_ARTIFACT = {
    "decompose": "decompose",
    "ordering": "order",
    "forest": "forest",
    "triangles": "triangles",
    "triplets": "triangles",
    "level_triangles": "triangles",
    "node_triangles": "triangles",
}


def _positive_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ValueError(f"jobs must be a positive worker count, got {jobs!r}")
    return jobs


@dataclass(frozen=True)
class ApplyResult:
    """Outcome of one :meth:`BestKIndex.apply` call.

    ``path`` / ``reason`` mirror the ``dynamic.maintain`` counter labels
    (``"none"`` when no maintenance ran: a no-op delta, or no core
    baseline to repair).  ``patched`` / ``retained`` / ``invalidated``
    partition the families that had artifacts before the apply: patched
    families kept an artifact repaired in place, retained families kept
    everything untouched (no-op delta), invalidated families rebuild
    lazily on their next query.
    """

    epoch: int
    graph: Graph
    path: str
    reason: str
    changed: int
    inserted: int
    deleted: int
    patched: tuple[str, ...]
    retained: tuple[str, ...]
    invalidated: tuple[str, ...]


class BestKIndex:
    """Lazily built, shared index answering best-k for every family.

    Parameters
    ----------
    graph:
        The host graph; all queries refer to it.  Passing a
        :class:`~repro.dynamic.VersionedGraph` serves its current
        snapshot and lets :meth:`apply` continue the lineage (epoch
        numbering, stamped digests) instead of starting a fresh one.
    backend:
        Kernel backend selector threaded through every kernel the index
        runs (name, instance, or ``None`` for ``REPRO_BACKEND``/default).
    jobs:
        Worker-process count for :meth:`prebuild` and the batch APIs, a
        positive int; ``1`` (the default) keeps everything in-process.
    store:
        Persistent artifact cache: an
        :class:`~repro.index.store.ArtifactStore`, a directory path, or
        ``None`` to defer to ``REPRO_CACHE_DIR`` (off when unset).
        ``False`` forces off regardless of the environment.

    Examples
    --------
    >>> index = BestKIndex(graph)                       # doctest: +SKIP
    >>> index.best_set("average_degree").k              # doctest: +SKIP
    >>> index.best_level("truss", "average_degree").k   # doctest: +SKIP
    >>> index.score_set_all_metrics()                   # doctest: +SKIP
    >>> index.score_cores_all_metrics()                 # doctest: +SKIP
    """

    def __init__(
        self, graph: Graph | VersionedGraph, *, backend=None,
        jobs: int = 1, store=None,
    ):
        if isinstance(graph, VersionedGraph):
            #: Epoch position when the index serves a dynamic lineage
            #: (``None`` for a plain static graph until the first apply).
            self._versioned: VersionedGraph | None = graph
            self.graph = graph.graph
        else:
            self._versioned = None
            self.graph = graph
        self.backend = backend
        #: Resolved kernel-backend name, handed to worker processes and
        #: recorded in the store manifests it writes.  Backends are
        #: bit-identical (``native`` fallback included), so it is not part
        #: of any store key.
        self.backend_name = get_backend(backend).name
        self.jobs = _positive_jobs(jobs)
        self.store = resolve_store(store)
        self._artifacts: dict[str, object] = {}
        #: Wall seconds spent building each artifact, by artifact key.
        #: Hydrated artifacts are charged 0.0 (their cost is load time,
        #: reported separately via :attr:`hydrate_seconds`).
        self.build_seconds: dict[str, float] = {}
        #: Wall seconds spent loading artifacts from the store.
        self.hydrate_seconds = 0.0
        #: Families whose store bundle has already been probed.
        self._hydrated: set[str] = set()
        #: Memoized per-(family, metric) level-set scores (Problem 1).
        self._scores: dict[tuple[str, str], LevelSetScores] = {}
        #: Memoized per-(family, metric) forest-node scores (Problem 2).
        self._node_scores: dict[tuple[str, str], LevelNodeScores] = {}
        #: Per-forest-node primary-value columns, keyed by (family, "with
        #: triangle counts") and shared by every metric.
        self._node_values: dict[tuple[str, bool], PrimaryColumns] = {}
        #: Answer vertex sets keyed (family, "level", k) for Problem 1 and
        #: (family, "node", node id) for Problem 2; read-only, shared by
        #: every metric with that winner.
        self._answers: dict[tuple[str, str, int], np.ndarray] = {}
        #: Last-seen :meth:`HierarchyFamily.cache_token` per family.
        self._tokens: dict[str, object] = {}
        #: ``(old ordering, touched vertices)`` per family, left by a
        #: patched :meth:`apply` for the next ordering build to patch from.
        self._order_bases: dict[str, tuple[LevelOrdering, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Lazy artifact store
    # ------------------------------------------------------------------
    def _get(self, fam: HierarchyFamily, params: dict, name: str, builder: Callable[[], object]):
        """Build-at-most-once cache of ``fam``'s artifact ``name``; records build time.

        The memo every :class:`~repro.engine.chain.ArtifactChain` of this
        index fetches through.  Time spent building *nested* artifacts
        inside ``builder`` (e.g. the forest triggering the Algorithm 1
        pass) is attributed to their own keys, not double-counted here.
        With a store configured, a freshly built value is offered to it
        (which decides eligibility); store I/O failures never fail the
        query.  An ordering, once present, drops the patch base a patched
        :meth:`apply` left for it.

        Each build also runs inside an ``index:build`` :mod:`repro.obs`
        span carrying the artifact key, its paper phase and the exact
        ``build_seconds`` charged here — a trace re-derives
        :meth:`phase_seconds` from span attributes alone.  The timing
        arithmetic itself is span-independent (plain ``perf_counter``), so
        tracing on or off never changes the recorded numbers' provenance.
        """
        key = f"{fam.name}:{name}"
        if key not in self._artifacts:
            with obs.span(
                "index:build", artifact=key, phase=_PHASE_BY_ARTIFACT.get(name, "other"),
            ) as sp:
                nested_before = sum(self.build_seconds.values())
                start = time.perf_counter()
                value = builder()
                elapsed = time.perf_counter() - start
                nested = sum(self.build_seconds.values()) - nested_before
                self._artifacts[key] = value
                self.build_seconds[key] = max(elapsed - nested, 0.0)
                sp.set_attr("build_seconds", self.build_seconds[key])
            obs.add("index.build", family=fam.name, artifact=name)
            if self.store is not None:
                try:
                    self.store.save_artifact(
                        self.graph, fam, params, self.backend_name, name, value
                    )
                except OSError:
                    pass
        if name == "ordering":
            self._order_bases.pop(fam.name, None)
        return self._artifacts[key]

    def _sync_token(self, fam: HierarchyFamily, params: dict) -> None:
        """Invalidate on cache-token change, then hydrate from the store.

        Every query funnels through here before touching a family's
        artifacts, so hydration is lazy (nothing is loaded for families
        the process never asks about) yet always lands before the first
        build decision.
        """
        token = fam.cache_token(**params)
        if token is not None:
            if self._tokens.get(fam.name, token) != token:
                self._invalidate(fam.name)
            self._tokens[fam.name] = token
        self._maybe_hydrate(fam, params)

    def _invalidate(self, family_name: str) -> None:
        self._order_bases.pop(family_name, None)
        prefix = family_name + ":"
        for key in [k for k in self._artifacts if k.startswith(prefix)]:
            del self._artifacts[key]
            self.build_seconds.pop(key, None)
        for memo in (self._scores, self._node_scores, self._node_values, self._answers):
            for key in [k for k in memo if k[0] == family_name]:
                del memo[key]
        # A token change selects a different bundle key, so the store must
        # be re-probed under the new params.
        self._hydrated.discard(family_name)

    def _maybe_hydrate(self, fam: HierarchyFamily, params: dict) -> None:
        """Probe the store once per family (per token) and absorb its bundle."""
        if self.store is None or not fam.supports_store or fam.name in self._hydrated:
            return
        self._hydrated.add(fam.name)
        with obs.span("index:hydrate", family=fam.name, phase="hydrate") as sp:
            start = time.perf_counter()
            try:
                loaded = self.store.load_bundle(self.graph, fam, params)
            except OSError:
                loaded = None
            seconds = time.perf_counter() - start
            self.hydrate_seconds += seconds
            sp.update(hit=bool(loaded), hydrate_seconds=seconds)
        if loaded:
            self._absorb(fam, loaded)

    def _absorb(
        self, fam: HierarchyFamily, artifacts: dict, seconds: dict | None = None
    ) -> None:
        """Insert externally built artifacts without clobbering local ones.

        ``build_seconds`` still gets an entry per absorbed key (0.0 for
        disk hydration, the worker's measurement for parallel builds) so
        the ``built == timed`` invariant the introspection tests rely on
        holds for every population path.
        """
        for name, value in artifacts.items():
            key = f"{fam.name}:{name}"
            if key in self._artifacts:
                continue
            self._artifacts[key] = value
            self.build_seconds[key] = float((seconds or {}).get(key, 0.0))

    # ------------------------------------------------------------------
    # Family-keyed artifacts (any registered family)
    # ------------------------------------------------------------------
    def _chain(self, fam: HierarchyFamily, params: dict) -> ArtifactChain:
        """The engine's artifact chain of ``fam`` over this index's cache."""
        return ArtifactChain(
            self.graph, fam, params, partial(self._get, fam, params),
            backend=self.backend, base=self._order_bases.get(fam.name),
        )

    def family_decomposition(self, family: str | HierarchyFamily, **params):
        """The family's decomposition, built on first use and cached."""
        return self.artifact(family, "decompose", **params)

    def artifact(self, family: str | HierarchyFamily, name: str, **params):
        """Fetch (building lazily) the named artifact of a family.

        Names, for every family: ``decompose``, ``levels``, ``ordering``,
        ``totals``, ``level_totals``, ``triangles``, ``triplets``,
        ``level_triangles`` (Problem 1) and ``forest``, ``node_totals``,
        ``node_triangles`` (Problem 2).  The triangle names raise
        :class:`~repro.errors.MetricRequirementError` for a family without
        triangle support.
        """
        fam = get_family(family)
        if name not in ARTIFACTS:
            raise KeyError(
                f"unknown artifact {name!r} for family {fam.name!r}; "
                f"choose from {ARTIFACTS}"
            )
        self._sync_token(fam, params)
        return getattr(self._chain(fam, params), name)()

    # ------------------------------------------------------------------
    # Parallel prebuild
    # ------------------------------------------------------------------
    @staticmethod
    def _metrics_for(fam: HierarchyFamily, metrics):
        """Normalise prebuild ``metrics``: ``None``, a tuple, or a per-family dict."""
        if metrics is None:
            return None
        if isinstance(metrics, dict):
            return metrics.get(fam.name)
        return tuple(metrics)

    def _plan_artifacts(
        self, fam: HierarchyFamily, metrics, problem2: bool
    ) -> list[str]:
        """Artifact names one family needs to serve the given metrics."""
        names = ["decompose", "levels", "ordering", "totals", "level_totals"]
        need_triangles = False
        if fam.supports_triangles:
            for m in (fam.batch_metrics if metrics is None else metrics):
                try:
                    if fam.metric_requires_triangles(fam.resolve_metric(m)):
                        need_triangles = True
                        break
                except ReproError:
                    continue
        if need_triangles:
            names += ["triangles", "level_triangles"]
        if problem2:
            names += ["forest", "node_totals"]
            if need_triangles:
                names.append("node_triangles")
        return names

    @staticmethod
    def _split_task_names(names: list[str]) -> list[list[str]]:
        """Split a family's missing artifacts into overlappable worker tasks.

        The O(m^1.5) triangle pass goes to its own task so it runs
        alongside the O(m) builds (the triangle worker re-derives its
        cheap prerequisites in-process rather than waiting on the other
        task — compute overlap beats a serial dependency chain).
        """
        tri = [n for n in names if n in _TRIANGLE_ARTIFACTS]
        if not tri or len(tri) == len(names):
            return [list(names)]
        return [[n for n in names if n not in _TRIANGLE_ARTIFACTS], tri]

    def prebuild(
        self,
        families=("core",),
        *,
        metrics=None,
        family_params: dict[str, dict] | None = None,
        problem2: bool = False,
        jobs: int | None = None,
    ) -> dict[str, tuple[str, ...]]:
        """Build every artifact the given queries will need, up front.

        With more than one worker configured (``jobs`` argument, else the
        index's ``jobs=``), missing artifacts fan out across a process
        pool: each task carries the pickled graph, each worker builds one
        family's artifact group, and the results come back through the
        same array codec the disk store uses — so the populated cache is
        bit-identical to a serial build.  With one worker (the default)
        everything builds in-process; either way queries afterwards are
        pure cache hits.

        ``metrics`` (a tuple, or a dict keyed by family name) decides
        whether the triangle pass is included; ``family_params`` supplies
        per-family ``**params`` (e.g. the weighted family's
        ``edge_weights``); ``problem2`` adds the Problem 2 (forest) artifacts.
        Families whose params are invalid (exactly the errors the serial
        sweeps skip) are skipped.  Returns the per-family tuple of planned
        artifact names now present.

        The whole fan-out runs inside an ``index:prebuild``
        :mod:`repro.obs` span; spans recorded by pool workers are shipped
        back with the artifact payloads and grafted beneath it, so a trace
        shows child-process builds nested exactly where they logically
        happened.
        """
        with obs.span("index:prebuild", phase="prebuild") as sp:
            return self._prebuild(
                families, metrics, family_params, problem2, jobs, sp
            )

    def _prebuild(self, families, metrics, family_params, problem2, jobs, sp):
        family_params = family_params or {}
        workers = self.jobs if jobs is None else _positive_jobs(jobs)
        sp.update(jobs=workers)
        planned: list[tuple[HierarchyFamily, dict, list[str]]] = []
        for family in families:
            fam = get_family(family)
            params = dict(family_params.get(fam.name, {}))
            try:
                self._sync_token(fam, params)
                names = self._plan_artifacts(fam, self._metrics_for(fam, metrics), problem2)
            except (ReproError, TypeError):
                continue
            planned.append((fam, params, names))

        tasks: list[tuple[HierarchyFamily, dict, tuple[str, ...]]] = []
        for fam, params, names in planned:
            missing = [n for n in names if f"{fam.name}:{n}" not in self._artifacts]
            for group in self._split_task_names(missing):
                if group:
                    tasks.append((fam, params, tuple(group)))

        sp.update(tasks=len(tasks), families=",".join(f.name for f, _, _ in planned))
        if workers > 1 and len(tasks) > 1:
            results = parallel_map(
                build_family_artifacts,
                [
                    (self.graph, fam.name, params, self.backend_name, names)
                    for fam, params, names in tasks
                ],
                jobs=workers,
            )
            for (fam, params, _), (
                _, payloads, seconds, spans, counters, histograms
            ) in zip(tasks, results):
                # Child work appears nested under this prebuild span and is
                # counted exactly once (workers extract before shipping).
                obs.adopt_spans(spans)
                obs.merge_counters(counters)
                obs.merge_histograms(histograms)
                if not payloads:
                    continue
                artifacts = hydrate_arrays(self.graph, fam, payloads, params)
                self._absorb(fam, artifacts, seconds)
                if self.store is not None:
                    for name, value in artifacts.items():
                        try:
                            self.store.save_artifact(
                                self.graph, fam, params, self.backend_name, name, value
                            )
                        except OSError:
                            pass
        # Serve the remainder in-process: everything when serial; the cheap
        # non-persisted artifacts (levels, totals) plus anything a worker
        # could not deliver when parallel.
        for fam, params, names in tasks:
            try:
                for name in names:
                    self.artifact(fam, name, **params)
            except (ReproError, TypeError):
                continue
        return {
            fam.name: tuple(n for n in names if f"{fam.name}:{n}" in self._artifacts)
            for fam, params, names in planned
        }

    # ------------------------------------------------------------------
    # Problem 1, any family: level-set scores and the best level
    # ------------------------------------------------------------------
    def level_scores(self, family: str | HierarchyFamily, metric, **params) -> LevelSetScores:
        """Scores of every level set of ``family`` under ``metric`` (memoized).

        The index-backed twin of :func:`repro.engine.family_set_scores`:
        the same :class:`~repro.engine.chain.ArtifactChain`, every
        intermediate served from the artifact cache.
        """
        fam = get_family(family)
        metric = fam.resolve_metric(metric)
        self._sync_token(fam, params)
        cached = self._scores.get((fam.name, metric.name))
        if cached is not None:
            return cached
        with obs.span(
            "index:score", family=fam.name, metric=metric.name, phase="score"
        ):
            score_start = time.perf_counter()
            result = self._chain(fam, params).set_scores(metric)
            obs.observe(
                "index.score_seconds", time.perf_counter() - score_start,
                family=fam.name, metric=metric.name,
            )
        self._scores[(fam.name, metric.name)] = result
        return result

    def _answer_vertices(self, key: tuple[str, str, int], build: Callable) -> np.ndarray:
        """The memoized answer vertex set ``key``, built read-only on first use."""
        if key not in self._answers:
            self._answers[key] = build()
            self._answers[key].setflags(write=False)
        return self._answers[key]

    def best_level(self, family: str | HierarchyFamily, metric=None, **params) -> BestLevelResult:
        """The best level of ``family`` under ``metric`` (Problem 1).

        Equal to :func:`repro.engine.best_level_set`; metrics that pick the
        same level share its memoized vertex set.
        """
        fam = get_family(family)
        scores = self.level_scores(
            fam, fam.default_metric if metric is None else metric, **params
        )
        k = scores.best_k()
        chain = self._chain(fam, params)
        vertices = self._answer_vertices((fam.name, "level", k), lambda: fam.members(
            self.graph, chain.decompose(), chain.levels(), k, **params
        ))
        return level_result(scores, fam.name, k, vertices)

    def best_level_all_metrics(
        self, family: str | HierarchyFamily, metrics: tuple[str, ...] | None = None, **params
    ) -> dict[str, BestLevelResult]:
        """Batch Problem 1 winners for one family, keyed by metric name.

        ``metrics`` defaults to the family's
        :attr:`~repro.engine.HierarchyFamily.batch_metrics`.
        """
        fam = get_family(family)
        names = fam.batch_metrics if metrics is None else metrics
        if self.jobs > 1:
            self.prebuild(
                (fam.name,), metrics=tuple(names),
                family_params={fam.name: dict(params)},
            )
        return {
            fam.resolve_metric(m).name: self.best_level(fam, m, **params)
            for m in names
        }

    # ------------------------------------------------------------------
    # Problem 2, any family: forest-node scores and the best node
    # ------------------------------------------------------------------
    def node_scores(self, family: str | HierarchyFamily, metric, **params) -> LevelNodeScores:
        """Scores of every connected level set of ``family`` (memoized).

        The index-backed twin of :func:`repro.engine.family_node_scores`:
        Algorithm 5 over the cached ``forest``, ``node_totals`` and
        ``node_triangles``.  The per-node primary-value columns are built
        once per family (with or without triangle counts) and shared by
        every metric.
        """
        fam = get_family(family)
        metric = fam.resolve_metric(metric)
        self._sync_token(fam, params)
        cached = self._node_scores.get((fam.name, metric.name))
        if cached is not None:
            return cached
        with obs.span(
            "index:score", family=fam.name, metric=metric.name, phase="score",
            problem=2,
        ):
            score_start = time.perf_counter()
            chain = self._chain(fam, params)
            key = (fam.name, fam.metric_requires_triangles(metric))
            if key not in self._node_values:
                self._node_values[key] = chain.node_columns(key[1])
            result = chain.node_scores(metric, self._node_values[key])
            obs.observe(
                "index.score_seconds", time.perf_counter() - score_start,
                family=fam.name, metric=metric.name,
            )
        self._node_scores[(fam.name, metric.name)] = result
        return result

    def best_node(self, family: str | HierarchyFamily, metric=None, **params) -> BestLevelResult:
        """The best connected level set of ``family`` under ``metric`` (Problem 2).

        Equal to :func:`repro.engine.best_connected_level_set`; ``metric``
        defaults to the family's default metric.  Metrics that pick the
        same node share its memoized component.
        """
        fam = get_family(family)
        scored = self.node_scores(
            fam, fam.default_metric if metric is None else metric, **params
        )
        forest = scored.forest
        return best_node_result(
            scored, fam.name, self._chain(fam, params).thresholds(forest.max_level),
            lambda node: self._answer_vertices(
                (fam.name, "node", node), partial(forest.component_vertices, node)
            ),
        )

    @property
    def decomposition(self):
        """The core decomposition (built on first use)."""
        return self.family_decomposition("core")

    # ------------------------------------------------------------------
    # Problem 1, core vocabulary: best k-core set
    # ------------------------------------------------------------------
    def set_scores(self, metric: str | Metric) -> LevelSetScores:
        """Scores of every k-core set under ``metric`` (memoized)."""
        return self.level_scores("core", metric)

    def best_set(self, metric: str | Metric) -> BestLevelResult:
        """The best k for the k-core set under ``metric`` (Problem 1)."""
        return self.best_level("core", metric)

    def score_set_all_metrics(
        self, metrics: tuple[str, ...] = PAPER_METRICS
    ) -> dict[str, LevelSetScores]:
        """Batch Problem 1: every metric scored from the one shared index."""
        if self.jobs > 1:
            self.prebuild(("core",), metrics=tuple(metrics))
        return {get_metric(m).name: self.set_scores(m) for m in metrics}

    def best_set_all_metrics(
        self, metrics: tuple[str, ...] = PAPER_METRICS
    ) -> dict[str, BestLevelResult]:
        """Batch Problem 1 winners, keyed by canonical metric name."""
        if self.jobs > 1:
            self.prebuild(("core",), metrics=tuple(metrics))
        return {get_metric(m).name: self.best_set(m) for m in metrics}

    # ------------------------------------------------------------------
    # Problem 2: best single (connected) k-core
    # ------------------------------------------------------------------
    def core_scores(self, metric: str | Metric) -> LevelNodeScores:
        """Scores of every connected k-core under ``metric`` (memoized)."""
        return self.node_scores("core", metric)

    def best_core(self, metric: str | Metric) -> BestLevelResult:
        """The best single connected k-core under ``metric`` (Problem 2)."""
        return self.best_node("core", metric)

    def score_cores_all_metrics(
        self, metrics: tuple[str, ...] = PAPER_METRICS
    ) -> dict[str, LevelNodeScores]:
        """Batch Problem 2: every metric scored from the one shared index."""
        if self.jobs > 1:
            self.prebuild(("core",), metrics=tuple(metrics), problem2=True)
        return {get_metric(m).name: self.core_scores(m) for m in metrics}

    def best_core_all_metrics(
        self, metrics: tuple[str, ...] = PAPER_METRICS
    ) -> dict[str, BestLevelResult]:
        """Batch Problem 2 winners, keyed by canonical metric name."""
        if self.jobs > 1:
            self.prebuild(("core",), metrics=tuple(metrics), problem2=True)
        return {get_metric(m).name: self.best_core(m) for m in metrics}

    # ------------------------------------------------------------------
    # Dynamic graphs: delta application with scoped invalidation
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epoch of the current snapshot (0 until the first :meth:`apply`)."""
        return 0 if self._versioned is None else self._versioned.epoch

    @property
    def versioned(self) -> VersionedGraph:
        """The current snapshot as a :class:`~repro.dynamic.VersionedGraph`."""
        if self._versioned is None:
            self._versioned = VersionedGraph(self.graph)
        return self._versioned

    def apply(
        self, delta: GraphDelta, *, strict: bool = True, plan: str | None = None,
    ) -> ApplyResult:
        """Advance the index to the next epoch with scoped invalidation.

        The snapshot moves forward via
        :meth:`~repro.dynamic.VersionedGraph.apply`; then, instead of the
        all-or-nothing cache flush a new ``BestKIndex`` would amount to,
        each family with built artifacts is handled by what the delta can
        provably have changed:

        * **retained** — a no-op delta (nothing effective, same vertex
          count) leaves every artifact and memoized score untouched;
        * **patched** — the core family's ``supports_incremental`` lets
          ``core:decompose`` be repaired in place through
          :func:`~repro.dynamic.incremental_core_numbers` (the repaired
          coreness rebuilds the decomposition deterministically), so the
          peel never reruns even though downstream core artifacts
          (ordering, totals, forest) rebuild lazily — ``core:ordering`` by
          patching the old ordering's affected rows
          (:func:`~repro.core.ordering.order_vertices` with ``base=``) when
          it was built before the apply — whether the repair runs one
          batched ``subcore_repair`` kernel dispatch or re-peels is
          decided by the cost-model planner
          (:func:`~repro.dynamic.plan_maintenance`), forceable via
          ``plan=``;
        * **invalidated** — rebuild-on-change families (truss, weighted,
          ecc) drop their artifacts and rebuild on next query.

        With a store configured, the new epoch snapshot is recorded
        (:meth:`~repro.index.store.ArtifactStore.save_epoch`) and the
        patched/retained artifacts are re-offered under the new
        epoch-stamped bundle key, so a warm restart after churn hydrates
        the newest consistent snapshot.  Results after an apply are
        bit-identical to a cold index on the new snapshot
        (``tests/test_index_apply.py`` enforces this).
        """
        vg = self.versioned
        core_fam = get_family("core")
        with obs.span(
            "index:apply", epoch=vg.epoch + 1,
            inserted=len(delta.insert), deleted=len(delta.delete),
        ) as sp:
            if self.store is not None:
                # Hydrate core now so a warm restart has a baseline to
                # repair instead of falling back to a full peel.
                self._maybe_hydrate(core_fam, {})
            new_vg = vg.apply(delta, strict=strict)
            eff = new_vg.applied
            noop = eff.is_empty and new_vg.num_vertices == vg.num_vertices
            families = self.built_families()

            maintained = None
            old_decomp = self._artifacts.get("core:decompose")
            if not noop and core_fam.supports_incremental and old_decomp is not None:
                maintained = incremental_core_numbers(
                    vg.graph, old_decomp.coreness, eff,
                    new_graph=new_vg.graph, backend=self.backend, plan=plan,
                )
            self._versioned = new_vg
            self.graph = new_vg.graph

            patched: list[str] = []
            retained: list[str] = []
            invalidated: list[str] = []
            old_ordering = self._artifacts.get("core:ordering")
            if noop:
                retained = list(families)
            else:
                for name in families:
                    self._invalidate(name)
                    if name == "core" and maintained is not None:
                        decomp = core_fam.load_decomposition(
                            self.graph, {"coreness": maintained.coreness}
                        )
                        self._artifacts["core:decompose"] = decomp
                        self.build_seconds["core:decompose"] = 0.0
                        if old_ordering is not None:
                            self._order_bases["core"] = (
                                old_ordering, eff.touched_vertices()
                            )
                        patched.append(name)
                    else:
                        invalidated.append(name)
            # The new snapshot's stamped digest keys different bundles, so
            # every family must be re-probed (and re-persisted) against it.
            self._hydrated.clear()
            if self.store is not None:
                try:
                    self.store.save_epoch(new_vg)
                except OSError:
                    pass
                for key in self._artifacts:
                    fam_name, _, art_name = key.partition(":")
                    try:
                        self.store.save_artifact(
                            self.graph, get_family(fam_name), {},
                            self.backend_name, art_name, self._artifacts[key],
                        )
                    except (ReproError, TypeError, OSError):
                        # Parametrised families (whose store token needs
                        # params this method does not carry) re-persist on
                        # their next ordinary build instead.
                        continue

            path = "none" if maintained is None else maintained.path
            reason = (
                ("noop" if noop else "no_artifacts")
                if maintained is None else maintained.reason
            )
            sp.update(path=path, reason=reason)
            return ApplyResult(
                epoch=new_vg.epoch,
                graph=new_vg.graph,
                path=path,
                reason=reason,
                changed=0 if maintained is None else int(len(maintained.changed)),
                inserted=len(eff.insert),
                deleted=len(eff.delete),
                patched=tuple(patched),
                retained=tuple(retained),
                invalidated=tuple(invalidated),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def built_artifacts(self) -> tuple[str, ...]:
        """``family:name`` keys of the artifacts built so far, sorted."""
        return tuple(sorted(self._artifacts))

    def built_families(self) -> tuple[str, ...]:
        """Names of the families with at least one built artifact, sorted."""
        return tuple(sorted({key.partition(":")[0] for key in self._artifacts}))

    def phase_seconds(self, family: str | None = None) -> dict[str, float]:
        """Build time split into the paper's phases.

        ``decompose`` / ``order`` / ``forest`` / ``triangles`` aggregate the
        artifacts listed in ``_PHASE_BY_ARTIFACT``; everything else (levels,
        totals, the O(n) suffix-sum accumulations) lands in ``other``.
        Pass ``family`` to restrict the split to one family's artifacts;
        the default aggregates across all families.

        The numbers aggregated here are exactly the ``build_seconds``
        attributes the ``index:build`` spans carry (each span also carries
        the same ``phase`` tag), so a :mod:`repro.obs` trace re-derives
        this table bit-for-bit — and with tracing disabled the values are
        untouched, since the timing is measured independently of the span.
        """
        phases = {
            "decompose": 0.0, "order": 0.0, "forest": 0.0,
            "triangles": 0.0, "other": 0.0,
        }
        for key, seconds in self.build_seconds.items():
            fam, _, name = key.partition(":")
            if family is not None and fam != family:
                continue
            phases[_PHASE_BY_ARTIFACT.get(name, "other")] += seconds
        return phases

    def phase_seconds_by_family(self) -> dict[str, dict[str, float]]:
        """Per-family :meth:`phase_seconds`, keyed by family name."""
        return {fam: self.phase_seconds(fam) for fam in self.built_families()}

    def total_build_seconds(self) -> float:
        """Total wall seconds spent building artifacts so far."""
        return sum(self.build_seconds.values())

    def __repr__(self) -> str:
        g = self.graph
        built = ",".join(self.built_artifacts()) or "nothing"
        return f"BestKIndex(n={g.num_vertices}, m={g.num_edges}, built=[{built}])"
