"""Scenario: best k for k-truss sets (the paper's Section VI-B extension).

The paper sketches how the optimal framework generalises beyond cores to
any hierarchical decomposition with the containment property.  This example
runs the concrete realisation for k-trusses:

1. truss decomposition (support peeling) assigns every edge its truss
   number;
2. the generalised level machinery (``repro.engine.levels``) re-uses
   Algorithm 1's ordering and Algorithm 2/3's incremental accumulation with
   the vertex truss level in the role of coreness;
3. best k per metric falls out in one top-down pass, exactly like cores:
   the same ``best_level_set`` call, with the ``truss`` family.

Run:  python examples/truss_extension.py
"""

from repro.core import best_kcore_set
from repro.engine import best_level_set, family_set_scores
from repro.generators import load_dataset
from repro.truss import truss_decomposition


def main() -> None:
    graph = load_dataset("AP")
    print(f"dataset AP stand-in: {graph!r}\n")

    td = truss_decomposition(graph)
    print(f"truss decomposition: tmax = {td.tmax}")
    print(f"edges in the innermost truss: {len(td.ktruss_edges(td.tmax))}")
    print(f"vertices of the innermost truss: {len(td.ktruss_vertices(td.tmax))}\n")

    print(f"{'metric':26s}{'best k-core set':>16s}{'best k-truss set':>18s}")
    for metric in ("average_degree", "internal_density", "conductance",
                   "modularity", "clustering_coefficient"):
        core_k = best_kcore_set(graph, metric).k
        truss_k = best_level_set(graph, "truss", metric, decomposition=td).k
        print(f"{metric:26s}{core_k:>16d}{truss_k:>18d}")

    # Trusses are strictly tighter than cores (a k-truss is a (k-1)-core),
    # so the same metric generally selects comparable-depth structures.
    scores = family_set_scores(graph, "truss", "clustering_coefficient", decomposition=td)
    print("\nclustering coefficient of every k-truss set:")
    for k in range(2, scores.max_level + 1, max(1, scores.max_level // 10)):
        print(f"  k = {k:3d}  cc = {scores.scores[k]:.4f}  "
              f"(n = {scores.values[k].num_vertices})")


if __name__ == "__main__":
    main()
