"""Scenario: track the best k while a graph evolves.

Real monitored networks gain and lose edges continuously.  This example
drives the production dynamic-graph path:

* :meth:`repro.BestKIndex.apply` advances the index by one
  :class:`repro.GraphDelta` per round and keeps the cached coreness
  current — a cost-model planner picks per delta between one batched
  ``subcore_repair`` kernel dispatch and a re-peel (on a graph this small
  with 400-edge rounds the peel wins) — while invalidating
  only what the delta can have changed, and
* the optimal best-k machinery re-scores the hierarchy from that index.

A social network grows by random attachment, with occasional edge churn;
we report how the best k under two metrics drifts.

Run:  python examples/streaming_best_k.py
"""

import numpy as np

from repro import BestKIndex, GraphDelta, best_kcore_set, core_decomposition
from repro.generators import powerlaw_chung_lu


def main() -> None:
    base = powerlaw_chung_lu(1500, 6.0, seed=51)
    index = BestKIndex(base)
    rng = np.random.default_rng(51)
    print(f"start: {index.versioned!r}")

    checkpoints = 6
    updates_per_round = 400
    last_kmax = index.decomposition.kmax
    for round_no in range(1, checkpoints + 1):
        graph = index.graph
        n = graph.num_vertices
        inserts: set[tuple[int, int]] = set()
        deletes: set[tuple[int, int]] = set()
        while len(inserts) + len(deletes) < updates_per_round:
            u = int(rng.integers(0, n))
            if rng.random() < 0.25:
                # Churn: drop a random existing edge.
                nbrs = graph.neighbors(u)
                if len(nbrs) == 0:
                    continue
                v = int(nbrs[rng.integers(0, len(nbrs))])
                deletes.add((min(u, v), max(u, v)))
            else:
                v = int(rng.integers(0, n))
                if u == v or graph.has_edge(u, v):
                    continue
                inserts.add((min(u, v), max(u, v)))

        applied = index.apply(GraphDelta.from_edges(sorted(inserts), sorted(deletes)))
        ad = best_kcore_set(index.graph, "average_degree", index=index)
        mod = best_kcore_set(index.graph, "modularity", index=index)
        kmax = index.decomposition.kmax
        drift = "(kmax changed)" if kmax != last_kmax else ""
        last_kmax = kmax
        print(
            f"round {round_no}: +{applied.inserted}/-{applied.deleted} edges "
            f"(path={applied.path}, {applied.reason}), "
            f"m={index.graph.num_edges}, kmax={kmax} {drift}\n"
            f"    best k (avg degree) = {ad.k:3d}  score {ad.score:7.3f}   "
            f"best k (modularity) = {mod.k:3d}  score {mod.score:.4f}"
        )

    print("\nThe maintained coreness equals a fresh decomposition at any point:")
    fresh = core_decomposition(index.graph).coreness
    print(f"  exact match: {bool((index.decomposition.coreness == fresh).all())}")


if __name__ == "__main__":
    main()
