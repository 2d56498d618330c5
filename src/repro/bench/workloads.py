"""Experiment implementations: one function per paper table/figure.

Each function regenerates the content of one table or figure of the paper
on the synthetic stand-in datasets, returning rendered text plus structured
data.  The ``benchmarks/`` suite and the CLI both call into this module, so
the experiments run identically from either entry point.

Index (see DESIGN.md §5):

========  ==========================================  =======================
Paper     Content                                     Function
========  ==========================================  =======================
Table 3   dataset statistics                          :func:`table3_dataset_stats`
Table 4   best k per metric (set + single core)       :func:`table4_best_k`
Figure 5  score of every k-core set vs k              :func:`fig5_set_scores`
Figure 6  score of every single k-core                :func:`fig6_core_scores`
Tables 5-7  DBLP case study                           :func:`tables5to7_case_study`
Figure 7  runtime, best k-core set                    :func:`fig7_runtime_set`
Figure 8  runtime, best single k-core                 :func:`fig8_runtime_core`
Table 8   densest subgraph + max clique               :func:`table8_densest_clique`
Table 9   size-constrained k-core hit rates           :func:`table9_sized_core`
A1        ablation: position tags vs rescanning       :func:`ablation_ordering`
A2        ablation: LCPS vs shell sweep forest        :func:`ablation_forest`
A3        ablation: index reuse across metrics        :func:`ablation_index_reuse`
E1        extension: best k-truss set                 :func:`extension_truss`
========  ==========================================  =======================
"""

from __future__ import annotations

import numpy as np

from ..apps import OptSC, core_app, greedy_clique, max_clique, opt_d
from ..core import (
    PAPER_METRICS,
    baseline_kcore_scores,
    baseline_kcore_set_scores,
    best_kcore_set,
    best_single_kcore,
    build_core_forest,
    build_core_forest_lcps,
    core_decomposition,
    get_metric,
    kcore_set_scores,
    order_vertices,
)
from ..engine import (
    baseline_family_set_scores,
    best_level_set,
    family_set_scores,
    get_family,
)
from ..engine.primary import graph_totals, primary_values
from ..errors import QueryError
from ..generators import DATASETS, coauthorship_graph, load_dataset
from ..graph.csr import Graph
from ..index import BestKIndex
from .figures import Series, windowed_average
from .harness import RunRecord, TimeBudget, format_seconds, time_call
from .tables import TextTable

__all__ = [
    "table3_dataset_stats",
    "table4_best_k",
    "fig5_set_scores",
    "fig6_core_scores",
    "tables5to7_case_study",
    "fig7_runtime_set",
    "fig8_runtime_core",
    "table8_densest_clique",
    "table9_sized_core",
    "ablation_ordering",
    "ablation_forest",
    "ablation_index_reuse",
    "ablation_dynamic",
    "extension_truss",
    "extension_weighted",
    "extension_communities",
    "extension_spreaders",
    "extension_ecc",
    "ALL_DATASET_KEYS",
    "RUNTIME_METRICS",
]

ALL_DATASET_KEYS = tuple(spec.abbreviation for spec in DATASETS)
#: The four metrics the paper plots in Figures 5-8.
RUNTIME_METRICS = ("average_degree", "conductance", "modularity", "clustering_coefficient")


# ----------------------------------------------------------------------
# Table III — dataset statistics
# ----------------------------------------------------------------------

def table3_dataset_stats(*, scale: float | None = None) -> TextTable:
    """Regenerate Table III for the stand-ins, next to the paper's numbers."""
    table = TextTable(
        "Table III: statistics of datasets (stand-ins vs paper)",
        ["Dataset", "n", "m", "davg", "kmax", "paper n", "paper m", "paper davg", "paper kmax"],
    )
    for spec in DATASETS:
        graph = load_dataset(spec.abbreviation, scale=scale)
        decomp = core_decomposition(graph)
        davg = 2 * graph.num_edges / max(graph.num_vertices, 1)
        table.add_row(
            spec.name, graph.num_vertices, graph.num_edges, round(davg, 1), decomp.kmax,
            spec.paper.num_vertices, spec.paper.num_edges, spec.paper.avg_degree, spec.paper.kmax,
        )
    table.add_note("stand-ins are synthetic, scaled-down analogues (see DESIGN.md §4)")
    return table


# ----------------------------------------------------------------------
# Table IV — best k for the k-core (set)
# ----------------------------------------------------------------------

def table4_best_k(
    *,
    scale: float | None = None,
    datasets: tuple[str, ...] = ALL_DATASET_KEYS,
    metrics: tuple[str, ...] = PAPER_METRICS,
) -> TextTable:
    """Best k per metric: CS-* rows (k-core set) and C-* rows (single core)."""
    table = TextTable(
        "Table IV: best k for the k-core (set)",
        ["Algo"] + [key for key in datasets],
    )
    # One shared index per dataset: every cell of both halves of the table
    # reuses the same decomposition/ordering/forest/triangle artifacts.
    caches = {key: BestKIndex(load_dataset(key, scale=scale)) for key in datasets}

    for metric_name in metrics:
        metric = get_metric(metric_name)
        abbrev = metric.abbreviation or metric.name
        row = [f"CS-{abbrev}"]
        for key in datasets:
            row.append(caches[key].best_set(metric).k)
        table.add_row(*row)
    for metric_name in metrics:
        metric = get_metric(metric_name)
        abbrev = metric.abbreviation or metric.name
        row = [f"C-{abbrev}"]
        for key in datasets:
            row.append(caches[key].best_core(metric).k)
        table.add_row(*row)
    table.add_note("largest k reported on ties, as in the paper")
    return table


# ----------------------------------------------------------------------
# Figure 5 — score of every k-core set
# ----------------------------------------------------------------------

def fig5_set_scores(
    *,
    scale: float | None = None,
    datasets: tuple[str, ...] = ("LJ", "O", "FS"),
    metrics: tuple[str, ...] = ("average_degree", "cut_ratio", "conductance", "modularity"),
) -> list[Series]:
    """Score of ``C_k`` for every k — the curves of Figure 5 (a)-(d)."""
    out: list[Series] = []
    for key in datasets:
        index = BestKIndex(load_dataset(key, scale=scale))
        for metric_name in metrics:
            scores = index.set_scores(metric_name)
            metric = get_metric(metric_name)
            out.append(Series.from_arrays(
                f"{key}:{metric.abbreviation}",
                np.arange(len(scores.scores)),
                scores.scores,
            ))
    return out


# ----------------------------------------------------------------------
# Figure 6 — score of every single k-core
# ----------------------------------------------------------------------

#: Paper smoothing: LiveJournal averages 20 consecutive cores, Orkut and
#: FriendSter 5.
FIG6_WINDOWS = {"LJ": 20, "O": 5, "FS": 5}


def fig6_core_scores(
    *,
    scale: float | None = None,
    datasets: tuple[str, ...] = ("LJ", "O", "FS"),
    metrics: tuple[str, ...] = ("average_degree", "cut_ratio", "conductance", "modularity"),
) -> list[Series]:
    """Score of every single k-core, in the paper's sequence order.

    Cores are ranked by ascending k with ties broken by ascending score
    (the paper's x axis ``c``); each dataset's curve is smoothed with its
    Figure 6 window.
    """
    out: list[Series] = []
    for key in datasets:
        index = BestKIndex(load_dataset(key, scale=scale))
        forest = index.forest
        for metric_name in metrics:
            scored = index.core_scores(metric_name)
            metric = get_metric(metric_name)
            order = np.lexsort((scored.scores, forest.k))
            sorted_scores = scored.scores[order]
            window = FIG6_WINDOWS.get(key, 5)
            smooth = windowed_average(sorted_scores, window)
            out.append(Series.from_arrays(
                f"{key}:{metric.abbreviation}",
                np.arange(len(smooth)) * window,
                smooth,
            ))
    return out


# ----------------------------------------------------------------------
# Tables V-VII — case study on the DBLP stand-in
# ----------------------------------------------------------------------

def tables5to7_case_study(*, scale: float | None = None) -> tuple[TextTable, TextTable, TextTable]:
    """Find the two planted communities by metric and score them.

    Community A (the fully collaborating lab, a 17-core) should win the
    cohesiveness metrics; community B (the isolated 9-core) should win the
    boundary metrics — the paper's Tables V, VI and VII.
    """
    if scale is None:
        from ..generators.datasets import bench_scale
        scale = bench_scale()
    net = coauthorship_graph(
        num_background_authors=int(3000 * scale),
        num_papers=int(3600 * scale),
        num_topics=max(10, int(44 * scale)),
        authors_per_paper=(2, 5),
        seed=103,
    )
    graph = net.graph
    index = BestKIndex(graph)

    community_a = best_single_kcore(graph, "average_degree", index=index)
    community_b = best_single_kcore(graph, "cut_ratio", index=index)

    def member_table(title: str, vertices: np.ndarray, k: int) -> TextTable:
        names = sorted(net.labels[int(v)] for v in vertices)
        cols = 3
        table = TextTable(f"{title} (k = {k})", [f"member {i + 1}" for i in range(cols)])
        for i in range(0, len(names), cols):
            chunk = list(names[i:i + cols]) + [""] * (cols - len(names[i:i + cols]))
            table.add_row(*chunk)
        return table

    table5 = member_table("Table V: community A", community_a.vertices, community_a.k)
    table6 = member_table("Table VI: community B", community_b.vertices, community_b.k)

    totals = graph_totals(graph)
    table7 = TextTable(
        "Table VII: scores of detected communities",
        ["ID", "ad", "den", "cc", "cr", "con"],
    )
    for label, vertices in (("A", community_a.vertices), ("B", community_b.vertices)):
        pv = primary_values(graph, vertices, count_triangles=True)
        table7.add_row(
            label,
            round(get_metric("ad").score(pv, totals), 4),
            round(get_metric("den").score(pv, totals), 4),
            round(get_metric("cc").score(pv, totals), 4),
            round(get_metric("cr").score(pv, totals), 6),
            round(get_metric("con").score(pv, totals), 4),
        )
    table7.add_note("A = best single core by average degree; B = best by cut ratio")
    return table5, table6, table7


# ----------------------------------------------------------------------
# Figures 7/8 — runtime of Baseline vs Optimal
# ----------------------------------------------------------------------

def _runtime_rows(
    *,
    single_core: bool,
    scale: float | None,
    datasets: tuple[str, ...],
    metrics: tuple[str, ...],
    budget: TimeBudget,
    verify: bool,
) -> TextTable:
    what = "single k-core (Fig. 8)" if single_core else "k-core set (Fig. 7)"
    table = TextTable(
        f"Runtime of finding the best {what}: Baseline vs Optimal",
        ["Dataset", "Metric", "Baseline", "Optimal", "decomp", "index", "score", "speedup"],
    )
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        for metric_name in metrics:
            metric = get_metric(metric_name)

            # A fresh index per (dataset, metric) keeps the cold per-phase
            # timings honest; reuse across metrics is measured separately
            # by ablation A3.
            shared = BestKIndex(graph)
            optimal = RunRecord(f"{key}:{metric.abbreviation}:optimal")
            with optimal.phase("decomposition"):
                decomp = shared.decomposition
            with optimal.phase("index"):
                shared.ordered
                if single_core:
                    shared.forest
            with optimal.phase("score"):
                if single_core:
                    fast = shared.core_scores(metric)
                else:
                    fast = shared.set_scores(metric)

            baseline = RunRecord(f"{key}:{metric.abbreviation}:baseline")
            estimated = TimeBudget.baseline_set_ops(
                graph.num_edges, decomp.kmax, triangles=metric.requires_triangles
            )
            if not budget.allows(estimated):
                baseline.dnf = True
            else:
                with baseline.phase("decomposition"):
                    base_decomp = core_decomposition(graph)
                if single_core:
                    with baseline.phase("index"):
                        base_forest = build_core_forest(graph, base_decomp)
                    with baseline.phase("score"):
                        slow = baseline_kcore_scores(graph, metric, forest=base_forest)
                else:
                    with baseline.phase("score"):
                        slow = baseline_kcore_set_scores(graph, metric, decomposition=base_decomp)
                if verify:
                    np.testing.assert_allclose(
                        fast.scores, slow.scores, equal_nan=True,
                        err_msg=f"optimal != baseline on {key}/{metric.name}",
                    )
            speedup = "-" if baseline.dnf else f"{baseline.total / max(optimal.total, 1e-9):.1f}x"
            table.add_row(
                key,
                metric.abbreviation,
                baseline.render_total(),
                format_seconds(optimal.total),
                format_seconds(optimal.phases.get("decomposition", 0.0)),
                format_seconds(optimal.phases.get("index", 0.0)),
                format_seconds(optimal.phases.get("score", 0.0)),
                speedup,
            )
    table.add_note("DNF = baseline skipped by the work estimator (paper: >10^5 s)")
    return table


def fig7_runtime_set(
    *,
    scale: float | None = None,
    datasets: tuple[str, ...] = ALL_DATASET_KEYS,
    metrics: tuple[str, ...] = RUNTIME_METRICS,
    budget: TimeBudget | None = None,
    verify: bool = True,
) -> TextTable:
    """Figure 7: runtime of finding the best k-core set."""
    return _runtime_rows(
        single_core=False, scale=scale, datasets=datasets, metrics=metrics,
        budget=budget or TimeBudget(), verify=verify,
    )


def fig8_runtime_core(
    *,
    scale: float | None = None,
    datasets: tuple[str, ...] = ALL_DATASET_KEYS,
    metrics: tuple[str, ...] = RUNTIME_METRICS,
    budget: TimeBudget | None = None,
    verify: bool = True,
) -> TextTable:
    """Figure 8: runtime of finding the best single k-core."""
    return _runtime_rows(
        single_core=True, scale=scale, datasets=datasets, metrics=metrics,
        budget=budget or TimeBudget(), verify=verify,
    )


# ----------------------------------------------------------------------
# Table VIII — densest subgraph and maximum clique
# ----------------------------------------------------------------------

def table8_densest_clique(
    *,
    scale: float | None = None,
    datasets: tuple[str, ...] = ALL_DATASET_KEYS,
    exact_clique_max_kmax: int = 120,
) -> TextTable:
    """Opt-D vs CoreApp on density + the ``MC ⊆ S*`` containment check."""
    table = TextTable(
        "Table VIII: Opt-D on densest subgraph & maximum clique",
        ["Dataset", "CoreApp davg", "CoreApp t", "Opt-D davg", "Opt-D t",
         "MC size", "MC in S*", "|S*|/n"],
    )
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        index = BestKIndex(graph)
        approx, approx_t = time_call(core_app, graph, index=index)
        ours, ours_t = time_call(opt_d, graph, index=index)
        decomp = index.decomposition
        if decomp.kmax <= exact_clique_max_kmax:
            clique = max_clique(graph, decomp)
        else:  # fall back to the greedy bound on pathological instances
            clique = greedy_clique(graph, decomp)
        star_set = set(ours.vertices.tolist())
        contained = all(int(v) in star_set for v in clique)
        table.add_row(
            key,
            round(approx.avg_degree, 3),
            format_seconds(approx_t),
            round(ours.avg_degree, 3),
            format_seconds(ours_t),
            len(clique),
            contained,
            f"{len(ours.vertices) / graph.num_vertices:.2%}",
        )
    table.add_note("S* = output of Opt-D (best single core by average degree)")
    return table


# ----------------------------------------------------------------------
# Table IX — size-constrained k-core
# ----------------------------------------------------------------------

def table9_sized_core(
    *,
    scale: float | None = None,
    ks: tuple[int, ...] = (3, 5, 8, 10, 12),
    target_size: int = 50,
    queries_per_cell: int = 20,
    seed: int = 42,
) -> TextTable:
    """Opt-SC hit rates on the DBLP stand-in, by query k and coreness tier.

    The paper uses k in {10..40} and coreness rows up to 113; the stand-in's
    kmax is smaller, so both axes are scaled down proportionally while
    keeping the pattern (hit rate falls as k approaches the coreness).
    """
    graph = load_dataset("D", scale=scale)
    decomp = core_decomposition(graph)
    engine = OptSC(graph)
    rng = np.random.default_rng(seed)

    distinct = sorted(set(decomp.coreness.tolist()) - {0})
    # Coreness tiers analogous to the paper's rows {30, 43, 51, 64, 113}.
    quantiles = [0.5, 0.7, 0.85, 0.95, 1.0]
    tiers = sorted({distinct[min(int(q * (len(distinct) - 1)), len(distinct) - 1)] for q in quantiles})

    table = TextTable(
        f"Table IX: Opt-SC hit rate on size-constrained k-core (DBLP, h={target_size})",
        ["c(v)"] + [f"k={k}" for k in ks],
    )
    for tier in tiers:
        row: list[object] = [tier]
        candidates = np.flatnonzero(decomp.coreness == tier)
        for k in ks:
            if k > tier or len(candidates) == 0:
                row.append("/")
                continue
            picks = rng.choice(candidates, size=min(queries_per_cell, len(candidates)),
                               replace=len(candidates) < queries_per_cell)
            hits = 0
            answered = 0
            for v in picks:
                try:
                    result = engine.query(int(v), k, target_size)
                except QueryError:
                    continue
                answered += 1
                hits += result.hits()
            row.append("/" if answered == 0 else f"{hits / len(picks):.0%}")
        table.add_row(*row)
    table.add_note("'/' = no vertex of that coreness admits the query (as in the paper)")
    return table


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

def ablation_ordering(
    *, scale: float | None = None, datasets: tuple[str, ...] = ("AS", "O", "FS")
) -> TextTable:
    """A1: O(1) position tags vs rescanning each neighbourhood per query."""
    table = TextTable(
        "Ablation A1: Algorithm 2 score pass with tags vs neighbourhood rescans",
        ["Dataset", "with tags", "rescan", "ratio"],
    )
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        ordered = order_vertices(graph)

        _, fast_t = time_call(kcore_set_scores, graph, "average_degree", ordered=ordered)

        def rescan_pass() -> np.ndarray:
            coreness = ordered.decomposition.coreness
            n_gt = np.zeros(graph.num_vertices, dtype=np.int64)
            n_eq = np.zeros(graph.num_vertices, dtype=np.int64)
            n_lt = np.zeros(graph.num_vertices, dtype=np.int64)
            for v in range(graph.num_vertices):
                cv = coreness[v]
                for u in graph.neighbors(v):
                    cu = coreness[u]
                    if cu > cv:
                        n_gt[v] += 1
                    elif cu == cv:
                        n_eq[v] += 1
                    else:
                        n_lt[v] += 1
            return n_gt

        _, slow_t = time_call(rescan_pass)
        table.add_row(key, format_seconds(fast_t), format_seconds(slow_t),
                      f"{slow_t / max(fast_t, 1e-9):.1f}x")
    table.add_note("rescanning is O(m) per metric; tags make the pass O(n)")
    return table


def ablation_forest(
    *, scale: float | None = None, datasets: tuple[str, ...] = ALL_DATASET_KEYS
) -> TextTable:
    """A2: LCPS (Algorithm 4) vs the vectorised shell-sweep forest construction."""
    table = TextTable(
        "Ablation A2: core forest construction, LCPS vs shell sweep",
        ["Dataset", "LCPS", "shell sweep", "nodes"],
    )
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        decomp = core_decomposition(graph)
        lcps, lcps_t = time_call(build_core_forest_lcps, graph, decomp)
        sweep, sweep_t = time_call(build_core_forest, graph, decomp)
        for field in ("k", "parent", "vert_ptr", "vertices"):
            assert np.array_equal(getattr(lcps, field), getattr(sweep, field)), field
        table.add_row(key, format_seconds(lcps_t), format_seconds(sweep_t), sweep.num_nodes)
    return table


def ablation_index_reuse(
    *, scale: float | None = None, datasets: tuple[str, ...] = ("LJ", "O", "FS")
) -> TextTable:
    """A3: amortising the Algorithm 1 index across the six paper metrics.

    The paper notes the optimal algorithm's margin grows when the index is
    built once and reused ("index building ... executed one time, while
    score computation can be run many times").
    """
    table = TextTable(
        "Ablation A3: one shared index vs re-building per metric (6 metrics)",
        ["Dataset", "shared index", "rebuild each", "ratio"],
    )
    for key in datasets:
        graph = load_dataset(key, scale=scale)

        def shared() -> None:
            BestKIndex(graph).score_set_all_metrics(PAPER_METRICS)

        def rebuild() -> None:
            for metric in PAPER_METRICS:
                kcore_set_scores(graph, metric)

        _, shared_t = time_call(shared)
        _, rebuild_t = time_call(rebuild)
        table.add_row(key, format_seconds(shared_t), format_seconds(rebuild_t),
                      f"{rebuild_t / max(shared_t, 1e-9):.1f}x")
    table.add_note("all 6 paper metrics, incl. the triangle pass shared via BestKIndex")
    return table


# ----------------------------------------------------------------------
# Extension: best k-truss set (paper Section VI-B)
# ----------------------------------------------------------------------

def extension_truss(
    *, scale: float | None = None, datasets: tuple[str, ...] = ("AP", "G", "D"),
    verify: bool = True,
) -> TextTable:
    """E1: best k for k-truss sets via the generic hierarchy engine."""
    family = get_family("truss")
    metrics = ("ad", "den", "cc")
    table = TextTable(
        "Extension E1: best k-truss set per metric",
        ["Dataset", "tmax", "best ad", "best den", "best cc", "optimal t", "baseline t"],
    )
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        td, _ = time_call(family.decompose, graph)

        def optimal_all() -> list:
            ordering = family.ordering(graph, family.levels(td))
            return [
                family_set_scores(graph, family, m, decomposition=td, ordering=ordering)
                for m in metrics
            ]

        def baseline_all() -> list:
            return [
                baseline_family_set_scores(graph, family, m, decomposition=td)
                for m in metrics
            ]

        fast, opt_t = time_call(optimal_all)
        slow, base_t = time_call(baseline_all)
        if verify:
            for f, s in zip(fast, slow):
                np.testing.assert_allclose(f.scores, s.scores, equal_nan=True)
        ks = [scores.best_k() for scores in fast]
        table.add_row(key, td.tmax, ks[0], ks[1], ks[2],
                      format_seconds(opt_t), format_seconds(base_t))
    table.add_note("both columns time the same three metrics (ad, den, cc)")
    return table


# ----------------------------------------------------------------------
# Extension: best s for weighted s-cores (paper Section VII)
# ----------------------------------------------------------------------

def extension_weighted(
    *, scale: float | None = None, datasets: tuple[str, ...] = ("G", "LJ", "O"),
    num_levels: int = 48, verify: bool = True, seed: int = 7,
) -> TextTable:
    """E2: best strength threshold for s-core sets on weighted stand-ins.

    Edge weights are synthetic (log-normal, the usual strength model for
    social interaction counts); the incremental weighted pass is verified
    against the from-scratch baseline and timed against it.
    """
    family = get_family("weighted")
    table = TextTable(
        "Extension E2: best s-core set under weighted metrics",
        ["Dataset", "smax", "best s (w-ad)", "best s (w-con)", "optimal t", "baseline t"],
    )
    rng = np.random.default_rng(seed)
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        weights = rng.lognormal(mean=0.0, sigma=0.75, size=graph.num_edges)
        params = {"edge_weights": weights, "num_levels": num_levels}
        decomp = family.decompose(graph, **params)

        def optimal_two():
            return [
                family_set_scores(graph, family, m, decomposition=decomp, **params)
                for m in ("weighted_average_degree", "weighted_conductance")
            ]

        def baseline_two():
            return [
                baseline_family_set_scores(graph, family, m, decomposition=decomp, **params)
                for m in ("weighted_average_degree", "weighted_conductance")
            ]

        fast, opt_t = time_call(optimal_two)
        slow, base_t = time_call(baseline_two)
        if verify:
            for f, s in zip(fast, slow):
                np.testing.assert_allclose(f.scores, s.scores, equal_nan=True, atol=1e-9)
        best_ad = best_level_set(graph, family, "weighted_average_degree",
                                 decomposition=decomp, **params)
        best_con = best_level_set(graph, family, "weighted_conductance",
                                  decomposition=decomp, **params)
        table.add_row(
            key, round(decomp.smax, 2), round(best_ad.s, 3), round(best_con.s, 3),
            format_seconds(opt_t), format_seconds(base_t),
        )
    table.add_note("weighted analogue of Table IV's ad/con columns; s in strength units")
    return table


# ----------------------------------------------------------------------
# Extension: community detection comparison (related work [37])
# ----------------------------------------------------------------------

def extension_communities(
    *, scale: float | None = None, datasets: tuple[str, ...] = ("G", "D", "LJ"),
    seed: int = 3,
) -> TextTable:
    """E3: score best-core communities against optimisation-based partitions.

    For each dataset: the best k-core set by modularity (one community vs
    the rest — the structure this paper's algorithms optimise), Louvain and
    label propagation.  Columns report the partition modularity and the
    conductance of each method's best single community.
    """
    from ..community import label_propagation, louvain, partition_modularity
    from ..graph.views import subgraph_counts

    table = TextTable(
        "Extension E3: best-core communities vs detection algorithms",
        ["Dataset", "method", "partition mod", "best-community con", "communities"],
    )

    def community_conductance(graph: Graph, members: np.ndarray) -> float:
        n_s, m_s, b_s = subgraph_counts(graph, members)
        volume = 2 * m_s + b_s
        return 1.0 - (b_s / volume if volume else 0.0)

    for key in datasets:
        graph = load_dataset(key, scale=scale)
        # (a) best k-core set under modularity: community = C_k*, rest = other.
        best = best_kcore_set(graph, "modularity")
        labels = np.zeros(graph.num_vertices, dtype=np.int64)
        labels[best.vertices] = 1
        table.add_row(
            key, f"best C_k (k={best.k})",
            round(partition_modularity(graph, labels), 4),
            round(community_conductance(graph, best.vertices), 4),
            2,
        )
        # (b) Louvain.
        lv = louvain(graph, seed=seed)
        sizes = np.bincount(lv)
        biggest = np.flatnonzero(lv == int(np.argmax(sizes)))
        table.add_row(
            key, "Louvain",
            round(partition_modularity(graph, lv), 4),
            round(community_conductance(graph, biggest), 4),
            int(lv.max()) + 1,
        )
        # (c) label propagation.
        lp = label_propagation(graph, seed=seed)
        sizes = np.bincount(lp)
        biggest = np.flatnonzero(lp == int(np.argmax(sizes)))
        table.add_row(
            key, "LabelProp",
            round(partition_modularity(graph, lp), 4),
            round(community_conductance(graph, biggest), 4),
            int(lp.max()) + 1,
        )
    table.add_note("best C_k is a 2-way partition; detection methods use many communities")
    return table


# ----------------------------------------------------------------------
# Extension: influential spreaders (paper application area, Kitsak [34])
# ----------------------------------------------------------------------

def extension_spreaders(
    *, scale: float | None = None, datasets: tuple[str, ...] = ("AP", "G", "D"),
    sample_size: int = 80, trials: int = 8, top_fraction: float = 0.15, seed: int = 9,
) -> TextTable:
    """E4: coreness vs degree as predictors of SIR spreading power.

    Reproduces the qualitative Kitsak et al. finding the paper's
    introduction leans on: near the epidemic threshold, a vertex's coreness
    locates the best spreaders at least as well as its degree.
    """
    from ..apps.spreading import spreader_precision, spreading_power

    table = TextTable(
        "Extension E4: identifying influential spreaders (SIR)",
        ["Dataset", "precision by coreness", "precision by degree", "precision random"],
    )
    rng = np.random.default_rng(seed)
    for key in datasets:
        graph = load_dataset(key, scale=scale)
        decomp = core_decomposition(graph)
        sample = rng.choice(graph.num_vertices, size=min(sample_size, graph.num_vertices),
                            replace=False)
        power = spreading_power(graph, sample, trials=trials, seed=seed)
        coreness = decomp.coreness[sample].astype(np.float64)
        degree = graph.degrees()[sample].astype(np.float64)
        random_scores = rng.random(len(sample))
        table.add_row(
            key,
            f"{spreader_precision(coreness, power, top_fraction=top_fraction):.0%}",
            f"{spreader_precision(degree, power, top_fraction=top_fraction):.0%}",
            f"{spreader_precision(random_scores, power, top_fraction=top_fraction):.0%}",
        )
    table.add_note("precision@15% of the empirical top spreaders, SIR near threshold")
    return table


# ----------------------------------------------------------------------
# Extension: best k for k-ECC sets (paper introduction's model list)
# ----------------------------------------------------------------------

def extension_ecc(*, seed: int = 2) -> TextTable:
    """E5: the generalised machinery on k-edge-connected components.

    The paper's introduction names k-ecc among the models lacking a best-k
    method; this experiment runs the realised version on small planted-
    community graphs (the recursive min-cut decomposition is cubic-ish, so
    the instances stay small by design) and lines the chosen k up against
    the k-core answer on the same graphs.
    """
    from ..generators import planted_partition

    ecc_family = get_family("ecc")
    core_family = get_family("core")
    table = TextTable(
        "Extension E5: best k-ECC set vs best k-core set",
        ["Graph", "ecc kmax", "core kmax",
         "best ecc k (ad)", "best core k (ad)",
         "best ecc k (con)", "best core k (con)"],
    )
    configs = [("planted 3x15", 3, 15, 0.5, 0.03), ("planted 4x20", 4, 20, 0.5, 0.03),
               ("planted 4x20 sparse", 4, 20, 0.35, 0.02)]
    for name, blocks, size, p_in, p_out in configs:
        graph, _ = planted_partition(blocks, size, p_in, p_out, seed=seed)
        ecc = ecc_family.decompose(graph)
        core = core_family.decompose(graph)
        row = [name, ecc.kmax, core.kmax]
        for metric in ("average_degree", "conductance"):
            row.append(best_level_set(graph, ecc_family, metric, decomposition=ecc).k)
            row.append(best_level_set(graph, core_family, metric, decomposition=core).k)
        table.add_row(*row)
    table.add_note("edge connectivity <= coreness, so the ecc ks sit at or below the core ks")
    return table


# ----------------------------------------------------------------------
# Ablation: dynamic maintenance vs recompute per update
# ----------------------------------------------------------------------

def ablation_dynamic(
    *, scale: float | None = None, dataset: str = "G", updates: int = 300, seed: int = 13,
) -> TextTable:
    """A4: maintained coreness vs full recomputation per edge update.

    Both strategies replay the same single-edge deltas through
    :meth:`~repro.dynamic.VersionedGraph.apply`; one repairs coreness with
    :func:`~repro.dynamic.incremental_core_numbers`, the other re-peels
    every epoch.
    """
    from ..dynamic import GraphDelta, VersionedGraph, incremental_core_numbers

    graph = load_dataset(dataset, scale=scale)
    rng = np.random.default_rng(seed)
    n = graph.num_vertices

    # Pre-plan a mixed update stream so both strategies replay identical work.
    present = set(graph.edges())
    plan: list[GraphDelta] = []
    while len(plan) < updates:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in present:
            if rng.random() < 0.5:
                plan.append(GraphDelta.from_edges(delete=[edge]))
                present.discard(edge)
        else:
            plan.append(GraphDelta.from_edges(insert=[edge]))
            present.add(edge)

    def run_dynamic() -> np.ndarray:
        vg = VersionedGraph(graph)
        core = core_decomposition(graph).coreness
        for delta in plan:
            nxt = vg.apply(delta)
            core = incremental_core_numbers(
                vg.graph, core, nxt.applied, new_graph=nxt.graph
            ).coreness
            vg = nxt
        return core

    def run_recompute() -> np.ndarray:
        vg = VersionedGraph(graph)
        last = None
        for delta in plan:
            vg = vg.apply(delta)
            last = core_decomposition(vg.graph).coreness
        return last

    dynamic, dyn_t = time_call(run_dynamic)
    recomputed, rec_t = time_call(run_recompute)
    np.testing.assert_array_equal(dynamic, recomputed)

    table = TextTable(
        "Ablation A4: dynamic coreness maintenance vs recompute per update",
        ["Dataset", "updates", "dynamic total", "recompute total", "speedup"],
    )
    table.add_row(dataset, len(plan), format_seconds(dyn_t), format_seconds(rec_t),
                  f"{rec_t / max(dyn_t, 1e-9):.1f}x")
    table.add_note("final coreness verified identical between the two strategies")
    table.add_note("both totals include the O(m) VersionedGraph.apply snapshot per update")
    return table
