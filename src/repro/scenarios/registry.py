"""Declarative registry of named benchmark scenarios.

A *scenario* pins every knob that shapes an execution — generator,
family, metric, kernel backend, worker count, cache temperature, and
optionally a dynamic delta stream — under one stable name.  The registry is the closed-loop harness's source of truth: the
runner sweeps it, the sentinel compares runs of it, and a baseline file
keyed by scenario name stays meaningful across commits precisely because
the name captures the whole configuration.

The built-in catalogue covers the axes the package actually ships:

* all four hierarchy families (``core``/``truss``/``weighted``/``ecc``),
* all three kernel backends (``python``/``numpy``/``native``),
* serial and ``jobs=2`` parallel prebuilds,
* a cold-prime/warm-repeat artifact-cache scenario, and
* a dynamic delta stream maintained through ``BestKIndex.apply``.

Graphs are sized for seconds-not-minutes wall time: the sentinel's value
is trend detection on every commit, not peak-throughput bragging.  The
``quick`` subset is smaller still — it is what CI runs per push.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError
from ..generators import (
    barabasi_albert,
    gnm_random_graph,
    planted_partition,
    powerlaw_chung_lu,
    rmat_graph,
    watts_strogatz,
)

__all__ = [
    "GENERATORS",
    "Scenario",
    "available_scenarios",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
]

#: Generator name -> callable returning a Graph from keyword args.
GENERATORS = {
    "powerlaw_chung_lu": powerlaw_chung_lu,
    "rmat": rmat_graph,
    "gnm": gnm_random_graph,
    # planted_partition returns (graph, labels); scenarios need the graph.
    "planted_partition": lambda **kw: planted_partition(**kw)[0],
    "watts_strogatz": watts_strogatz,
    "barabasi_albert": barabasi_albert,
}


@dataclass(frozen=True)
class Scenario:
    """One named, fully pinned benchmark configuration."""

    name: str
    generator: str
    generator_args: dict = field(default_factory=dict)
    family: str = "core"
    #: ``None`` uses the family's default metric.
    metric: str | None = None
    backend: str = "numpy"
    jobs: int = 1
    #: Cache scenario: one cold prime, then warm repeats against a store.
    cache: bool = False
    #: Number of delta epochs to stream through ``BestKIndex.apply``
    #: (0 = static scenario).
    delta_stream: int = 0
    repeats: int = 3
    #: Member of the ``--quick`` subset CI sweeps per push.
    quick: bool = False
    description: str = ""

    def config(self) -> dict:
        """The scenario's knobs as one JSON-able dict (for result records)."""
        return {
            "generator": self.generator,
            "generator_args": dict(self.generator_args),
            "family": self.family,
            "metric": self.metric,
            "backend": self.backend,
            "jobs": self.jobs,
            "cache": self.cache,
            "delta_stream": self.delta_stream,
        }


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry under ``scenario.name``."""
    if scenario.generator not in GENERATORS:
        raise ReproError(
            f"scenario {scenario.name!r}: unknown generator {scenario.generator!r} "
            f"(known: {', '.join(sorted(GENERATORS))})"
        )
    if not overwrite and scenario.name in _REGISTRY:
        raise ReproError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    found = _REGISTRY.get(name)
    if found is None:
        raise ReproError(
            f"unknown scenario {name!r} (known: {', '.join(available_scenarios())})"
        )
    return found


def available_scenarios() -> tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(_REGISTRY)


def iter_scenarios(
    *, quick: bool = False, only: tuple[str, ...] | None = None
) -> tuple[Scenario, ...]:
    """The sweep set: every scenario, the quick subset, or a named few."""
    if only:
        return tuple(get_scenario(name) for name in only)
    chosen = _REGISTRY.values()
    if quick:
        chosen = (s for s in chosen if s.quick)
    return tuple(chosen)


# ----------------------------------------------------------------------
# Built-in catalogue
# ----------------------------------------------------------------------

for _scenario in (
    # -- core family across the three backends ---------------------------
    Scenario(
        name="core-cl-numpy",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 3000, "avg_degree": 6.0, "seed": 7},
        family="core", backend="numpy", quick=True,
        description="Problem 1 on a Chung-Lu power-law graph, default backend",
    ),
    Scenario(
        name="core-cl-python",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 1500, "avg_degree": 6.0, "seed": 7},
        family="core", backend="python", quick=True,
        description="Scalar reference backend on the same workload shape",
    ),
    Scenario(
        name="core-cl-native",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 3000, "avg_degree": 6.0, "seed": 7},
        family="core", backend="native",
        description="JIT backend (degrades per kernel to numpy when no toolchain)",
    ),
    # -- parallel prebuild and cache temperature -------------------------
    Scenario(
        name="core-cl-jobs2",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 3000, "avg_degree": 6.0, "seed": 7},
        family="core", backend="numpy", jobs=2,
        description="Index prebuild fanned out across 2 worker processes",
    ),
    Scenario(
        name="core-cl-cache-warm",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 3000, "avg_degree": 6.0, "seed": 7},
        family="core", backend="numpy", cache=True,
        description="Cold store prime, then warm-cache query repeats",
    ),
    # -- truss family -----------------------------------------------------
    Scenario(
        name="truss-ws-numpy",
        generator="watts_strogatz",
        generator_args={
            "num_vertices": 1200, "ring_neighbors": 6,
            "rewire_prob": 0.1, "seed": 7,
        },
        family="truss", backend="numpy", quick=True,
        description="Triangle-rich small world for the k-truss hierarchy",
    ),
    Scenario(
        name="truss-ba-native",
        generator="barabasi_albert",
        generator_args={"num_vertices": 1500, "attach": 4, "seed": 7},
        family="truss", backend="native",
        description="k-truss on preferential attachment, JIT kernels",
    ),
    # -- weighted family ---------------------------------------------------
    Scenario(
        name="weighted-cl-numpy",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 2000, "avg_degree": 6.0, "seed": 7},
        family="weighted", backend="numpy", quick=True,
        description="Strength decomposition with synthetic log-normal weights",
    ),
    Scenario(
        name="weighted-gnm-python",
        generator="gnm",
        generator_args={"num_vertices": 800, "num_edges": 3200, "seed": 7},
        family="weighted", backend="python",
        description="Weighted family on the scalar reference backend",
    ),
    # -- ecc family --------------------------------------------------------
    # The ecc decomposition is recursive Stoer-Wagner min-cut splitting
    # (cubic-ish by design; see repro/ecc/decomposition.py), so its
    # scenarios stay two orders of magnitude smaller than the rest.
    Scenario(
        name="ecc-pp-numpy",
        generator="planted_partition",
        generator_args={
            "num_communities": 4, "community_size": 25,
            "p_in": 0.3, "p_out": 0.02, "seed": 7,
        },
        family="ecc", backend="numpy", quick=True,
        description="Community-structured graph for the ecc hierarchy",
    ),
    Scenario(
        name="ecc-ba-python",
        generator="barabasi_albert",
        generator_args={"num_vertices": 120, "attach": 3, "seed": 7},
        family="ecc", backend="python",
        description="ecc family on the scalar reference backend",
    ),
    # -- dynamic maintenance ----------------------------------------------
    Scenario(
        name="dynamic-cl-stream",
        generator="powerlaw_chung_lu",
        generator_args={"num_vertices": 2000, "avg_degree": 6.0, "seed": 7},
        family="core", backend="numpy", delta_stream=6, quick=True,
        description="Six-epoch edge delta stream through incremental maintenance",
    ),
):
    register_scenario(_scenario)
del _scenario
