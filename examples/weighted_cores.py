"""Scenario: best strength threshold on a weighted interaction network.

The paper (Section VII) notes its best-k machinery "may shed light on
finding the best k-core on weighted graphs if we apply the weighted
community scores".  This example does exactly that on a synthetic weighted
social network:

1. build a power-law graph and assign log-normal interaction weights;
2. s-core decomposition: each vertex's deepest strength level;
3. score every (quantised) s-core set under the weighted metrics in one
   incremental pass and pick the best strength threshold — the engine's
   ``best_level_set`` with the ``weighted`` family.

Run:  python examples/weighted_cores.py
"""

import numpy as np

from repro.bench.figures import sparkline
from repro.engine import WEIGHTED_METRICS, best_level_set, family_set_scores
from repro.generators import powerlaw_chung_lu
from repro.weighted import s_core_decomposition


def main() -> None:
    graph = powerlaw_chung_lu(3000, 12.0, seed=11)
    rng = np.random.default_rng(11)
    weights = rng.lognormal(mean=0.0, sigma=0.8, size=graph.num_edges)
    print(f"weighted network: {graph!r}, total interaction weight "
          f"{weights.sum():.0f}")

    decomp = s_core_decomposition(graph, weights)
    print(f"deepest s-core level (smax) = {decomp.smax:.2f}")
    print(f"innermost s-core has {len(decomp.s_core_vertices(decomp.smax))} vertices\n")

    params = {"edge_weights": weights, "num_levels": 48}
    for metric in WEIGHTED_METRICS:
        result = best_level_set(graph, "weighted", metric, decomposition=decomp, **params)
        print(f"{metric:28s} best s = {result.s:8.3f}  score = {result.score:10.4f}  "
              f"|V| = {len(result.vertices)}")

    profile = family_set_scores(graph, "weighted", "weighted_average_degree",
                                decomposition=decomp, **params)
    print("\nweighted average degree across the s hierarchy:")
    print("  " + sparkline(profile.scores))
    print(f"  s = 0 ... {decomp.smax:.1f}  (the peak marks the best threshold)")


if __name__ == "__main__":
    main()
