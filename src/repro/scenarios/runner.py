"""Closed-loop scenario execution: run, verify, measure, record.

:func:`run_scenario` executes one registered :class:`~repro.scenarios.
registry.Scenario` under a fresh recorder and produces one
schema-versioned result record.  The loop is *closed* in both directions:

* **correctness** — every scenario's answer (best k, score, vertex set)
  is asserted bit-identical against a from-scratch python-reference
  execution before any timing is trusted; a mismatch raises
  :class:`~repro.errors.ScenarioMismatchError` instead of producing a
  number.  Dynamic scenarios additionally verify the maintained coreness
  array against a cold peel of the final snapshot.
* **measurement** — wall time is min/median-of-N with a fresh index per
  repeat (or warm store repeats for cache scenarios), and the latency
  histograms the instrumented seams observed (``kernel.seconds``,
  ``index.score_seconds``, ``dynamic.maintain_seconds``) travel in the record next to the counters
  and execution metadata, so a regression can be localised to a seam
  without re-running anything.

The record layout is versioned (:data:`SCHEMA_VERSION`); the sentinel
refuses to compare across schema versions.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from .. import obs
from ..bench.harness import execution_metadata
from ..core import core_decomposition
from ..dynamic import GraphDelta
from ..engine import best_level_set, get_family
from ..errors import ScenarioMismatchError
from ..index import BestKIndex
from ..obs import histogram_digest
from .registry import GENERATORS, Scenario, iter_scenarios

__all__ = ["SCHEMA_VERSION", "run_scenario", "run_suite"]

#: Version of the result-record layout; bumped on breaking field changes.
SCHEMA_VERSION = 1

#: Seed for the weighted family's synthetic log-normal edge weights
#: (matches the CLI's ``--weights-seed`` default).
WEIGHTS_SEED = 7

#: Strength quantisation for weighted scenarios (coarser than the
#: library default 64: scenario graphs are small).
NUM_LEVELS = 32

#: Above this edge count the pure-python reference execution is too slow
#: to re-run per sweep; the numpy backend (itself bit-identical to python
#: by the kernel contract, enforced in tests/test_kernels.py) serves as
#: the reference and the record says so.
REFERENCE_MAX_EDGES = 200_000


def _build_graph(scenario: Scenario):
    return GENERATORS[scenario.generator](**scenario.generator_args)


def _family_params(scenario: Scenario, graph) -> dict:
    if scenario.family != "weighted":
        return {}
    rng = np.random.default_rng(WEIGHTS_SEED)
    return {
        "edge_weights": rng.lognormal(mean=0.0, sigma=0.75, size=graph.num_edges),
        "num_levels": NUM_LEVELS,
    }


def _reference_backend(graph) -> str:
    return "python" if graph.num_edges <= REFERENCE_MAX_EDGES else "numpy"


def _delta_stream(graph, epochs: int) -> list[GraphDelta]:
    """A deterministic stream of mixed insert/delete deltas.

    Inserts are random pairs (collisions with existing edges are dropped
    by the lenient apply); deletes pick disjoint slices of the base
    snapshot's edge set, so every delete is effective exactly once across
    the stream.
    """
    rng = np.random.default_rng(13)
    n = graph.num_vertices
    edges = [
        (u, int(v))
        for u in range(n)
        for v in graph.neighbors(u)
        if u < v
    ]
    order = rng.permutation(len(edges))
    deltas = []
    for epoch in range(epochs):
        inserts = []
        while len(inserts) < 8:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                inserts.append((min(u, v), max(u, v)))
        lo = epoch * 4
        deletes = [edges[i] for i in order[lo:lo + 4]]
        deltas.append(GraphDelta.from_edges(insert=inserts, delete=deletes))
    return deltas


def _mismatch(scenario: Scenario, what: str) -> ScenarioMismatchError:
    return ScenarioMismatchError(
        f"scenario {scenario.name!r}: {what} differs from the reference execution"
    )


def _check_answer(scenario: Scenario, result, reference) -> None:
    if result.k != reference.k:
        raise _mismatch(scenario, f"best k ({result.k} vs {reference.k})")
    if not (
        result.score == reference.score
        or (np.isnan(result.score) and np.isnan(reference.score))
    ):
        raise _mismatch(scenario, f"score ({result.score!r} vs {reference.score!r})")
    if not np.array_equal(
        np.sort(np.asarray(result.vertices)),
        np.sort(np.asarray(reference.vertices)),
    ):
        raise _mismatch(scenario, "best vertex set")


def _run_static(scenario: Scenario, graph, params: dict, metric: str, repeats: int):
    """Fresh-index repeats (optionally against a warm artifact store)."""
    times: list[float] = []
    cold_seconds = None
    result = None

    def one_run(store) -> float:
        nonlocal result
        start = time.perf_counter()
        index = BestKIndex(
            graph, backend=scenario.backend, jobs=scenario.jobs, store=store,
        )
        if scenario.jobs > 1:
            index.prebuild(
                (scenario.family,), metrics=(metric,),
                family_params={scenario.family: params},
            )
        result = index.best_level(scenario.family, metric, **params)
        return time.perf_counter() - start

    if scenario.cache:
        with tempfile.TemporaryDirectory(prefix="bestk-scenario-") as tmp:
            cold_seconds = one_run(tmp)
            for _ in range(repeats):
                times.append(one_run(tmp))
    else:
        for _ in range(repeats):
            times.append(one_run(False))
    return times, cold_seconds, result


def _run_dynamic(scenario: Scenario, graph, params: dict, metric: str, repeats: int):
    """Delta-stream repeats: replay the same stream from the base graph."""
    deltas = _delta_stream(graph, scenario.delta_stream)
    times: list[float] = []
    result = final_graph = final_coreness = None
    for _ in range(repeats):
        start = time.perf_counter()
        index = BestKIndex(
            graph, backend=scenario.backend, jobs=scenario.jobs, store=False,
        )
        # A core baseline must exist before the first apply can repair it.
        index.family_decomposition("core")
        for delta in deltas:
            applied = index.apply(delta, strict=False)
        result = index.best_level(scenario.family, metric, **params)
        times.append(time.perf_counter() - start)
        coreness = index.family_decomposition("core").coreness
        if final_coreness is None:
            final_graph, final_coreness = applied.graph, coreness
        elif not np.array_equal(coreness, final_coreness):
            raise _mismatch(scenario, "maintained coreness across repeats")
    return times, result, final_graph, final_coreness


def run_scenario(scenario: Scenario, *, repeats: int | None = None) -> dict:
    """Execute one scenario under a fresh recorder; return its record."""
    graph = _build_graph(scenario)
    params = _family_params(scenario, graph)
    fam = get_family(scenario.family)
    metric = scenario.metric or fam.default_metric
    n_repeats = scenario.repeats if repeats is None else repeats

    obs.reset()
    cold_seconds = None
    if scenario.delta_stream:
        times, result, final_graph, final_coreness = _run_dynamic(
            scenario, graph, params, metric, n_repeats
        )
        verify_graph = final_graph
    else:
        times, cold_seconds, result = _run_static(
            scenario, graph, params, metric, n_repeats
        )
        verify_graph = graph

    # Snapshot what the scenario recorded before the reference run (which
    # runs outside the measurement window) adds its own observations.
    histograms = histogram_digest(obs.histograms())
    counters = obs.counters()
    execution = execution_metadata(jobs=scenario.jobs, obs_summary=obs.summary())

    ref_backend = _reference_backend(verify_graph)
    reference = best_level_set(
        verify_graph, scenario.family, metric, backend=ref_backend, **params
    )
    _check_answer(scenario, result, reference)
    if scenario.delta_stream:
        ref_core = core_decomposition(verify_graph, backend=ref_backend).coreness
        if not np.array_equal(final_coreness, ref_core):
            raise _mismatch(scenario, "maintained coreness")

    ordered = sorted(times)
    wall = {
        "runs": [round(t, 6) for t in times],
        "min": round(ordered[0], 6),
        "median": round(ordered[len(ordered) // 2], 6),
    }
    if cold_seconds is not None:
        wall["cold_seconds"] = round(cold_seconds, 6)
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "description": scenario.description,
        "config": scenario.config(),
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "verified": True,
        "reference_backend": ref_backend,
        "answer": {
            "metric": metric,
            "k": int(result.k),
            "score": float(result.score),
            "set_size": int(len(result.vertices)),
        },
        "wall_seconds": wall,
        "histograms": histograms,
        "counters": counters,
        "execution": execution,
    }


def run_suite(
    *,
    quick: bool = False,
    only: tuple[str, ...] | None = None,
    repeats: int | None = None,
    progress=None,
) -> dict:
    """Sweep the registered scenario space; return the suite report.

    ``progress`` is an optional callable receiving each record as it
    lands (the CLI prints a row per scenario).
    """
    results = []
    for scenario in iter_scenarios(quick=quick, only=only):
        record = run_scenario(scenario, repeats=repeats)
        if progress is not None:
            progress(record)
        results.append(record)
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        # Recorded so the sentinel knows a partial sweep was *deliberate*
        # and only demands baseline coverage for the declared selection.
        "only": sorted(only) if only else None,
        "scenario_count": len(results),
        "results": results,
    }
