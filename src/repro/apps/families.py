"""Cross-family application: the best community under every hierarchy.

The introduction of the paper motivates best-k as a model-selection
problem — *which* dense-subgraph model (k-core, k-truss, k-ecc, weighted
s-core) and *which* level of it best fits a graph.  With every model
registered as a :class:`~repro.engine.HierarchyFamily`, answering that
question is a loop over the registry sharing one
:class:`~repro.index.BestKIndex`, which is what
:func:`best_sets_by_family` does.
"""

from __future__ import annotations

from ..engine import BestLevelResult, available_families, get_family
from ..errors import ReproError
from ..graph.csr import Graph
from ..index import BestKIndex

__all__ = ["best_sets_by_family"]


def best_sets_by_family(
    graph: Graph,
    metric=None,
    *,
    families: tuple[str, ...] | None = None,
    family_params: dict[str, dict] | None = None,
    index: BestKIndex | None = None,
    backend=None,
    jobs: int = 1,
    store=None,
) -> dict[str, BestLevelResult]:
    """The best level set of each registered family, from one shared index.

    Parameters
    ----------
    metric:
        Metric name resolved *per family* (each family has its own metric
        vocabulary); ``None`` uses each family's default metric.
    families:
        Family names to run; default
        :func:`~repro.engine.available_families`.  Note the default
        includes ``ecc``, whose recursive min-cut decomposition is far
        more expensive than the peeling families — pass an explicit
        tuple without it on graphs beyond a few thousand edges.
    family_params:
        Per-family ``**params`` (e.g. ``{"weighted": {"edge_weights": w}}``).
        A family whose required parameters are missing (the weighted family
        without ``edge_weights``), or that cannot resolve ``metric`` in its
        own registry, is skipped rather than failing the sweep.
    index:
        A prebuilt :class:`~repro.index.BestKIndex` to reuse; one is
        created (and shared across the families) otherwise.
    jobs / store:
        Forwarded to the created :class:`~repro.index.BestKIndex`; with
        more than one worker the per-family builds are prebuilt in
        parallel (one worker per family artifact group) before the serial
        scoring sweep.  Ignored when ``index`` is supplied — configure the
        index itself instead.

    Returns
    -------
    dict
        ``family name -> BestLevelResult`` for every family that ran.
    """
    if index is None:
        index = BestKIndex(graph, backend=backend, jobs=jobs, store=store)
    run = tuple(families if families is not None else available_families())
    # Plan exactly the metric the sweep will score (each family's default
    # when unspecified) so the prebuild never drags in the triangle pass
    # for a metric nobody asked about.
    metrics = {
        name: (metric if metric is not None else get_family(name).default_metric,)
        for name in run
    }
    if index.jobs > 1:
        # The cross-family sweep is the natural fan-out unit: every family's
        # decompose/ordering/accumulate chain is independent of the others.
        index.prebuild(run, metrics=metrics, family_params=family_params)
    results: dict[str, BestLevelResult] = {}
    for name in run:
        fam = get_family(name)
        params = dict((family_params or {}).get(fam.name, {}))
        try:
            results[fam.name] = index.best_level(fam, metric, **params)
        except (ReproError, TypeError):
            # Missing required family params or a metric outside this
            # family's vocabulary: skip, keep sweeping.
            continue
    return results
