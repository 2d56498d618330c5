"""repro — finding the best k in core decomposition.

A complete, from-scratch Python reproduction of

    Deming Chu, Fan Zhang, Xuemin Lin, Wenjie Zhang, Ying Zhang,
    Yinglong Xia, Chenyi Zhang.
    "Finding the Best k in Core Decomposition: A Time and Space Optimal
    Solution."  ICDE 2020.

Quickstart
----------
>>> from repro import load_dataset, best_kcore_set, best_single_kcore
>>> graph = load_dataset("DBLP")
>>> best_kcore_set(graph, "average_degree").k        # doctest: +SKIP
17
>>> best_single_kcore(graph, "conductance").k        # doctest: +SKIP
9

See ``README.md`` for the architecture overview, ``DESIGN.md`` for the
system inventory and experiment index, and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from .apps import (
    DensestResult,
    OptSC,
    SizedCoreResult,
    best_sets_by_family,
    core_app,
    densest_subgraph_exact,
    greedy_peel_densest,
    max_clique,
    opt_d,
)
from .core import (
    PAPER_METRICS,
    CoreDecomposition,
    Metric,
    available_metrics,
    best_kcore_set,
    best_single_kcore,
    build_core_forest,
    core_decomposition,
    get_metric,
    kcore_scores,
    kcore_set_scores,
    order_vertices,
    register_metric,
)
from .community import label_propagation, louvain, partition_modularity
from .engine import (
    BestLevelResult,
    HierarchyFamily,
    LevelForest,
    LevelNodeScores,
    LevelOrdering,
    LevelSetScores,
    available_families,
    best_connected_level_set,
    best_level_set,
    family_set_scores,
    get_family,
    register_family,
)
from .dynamic import GraphDelta, VersionedGraph, incremental_core_numbers
from .errors import ReproError
from .index import ApplyResult, BestKIndex
from .generators import load_dataset
from .graph import Graph, GraphBuilder, load_edge_list, save_edge_list
from .truss import truss_decomposition
from .kernels import KernelBackend, available_backends, get_backend, register_backend
from .weighted import s_core_decomposition

__version__ = "1.0.0"

__all__ = [
    "ApplyResult",
    "BestKIndex",
    "BestLevelResult",
    "HierarchyFamily",
    "CoreDecomposition",
    "DensestResult",
    "Graph",
    "GraphBuilder",
    "GraphDelta",
    "KernelBackend",
    "LevelForest",
    "LevelNodeScores",
    "LevelOrdering",
    "LevelSetScores",
    "Metric",
    "OptSC",
    "PAPER_METRICS",
    "ReproError",
    "SizedCoreResult",
    "VersionedGraph",
    "available_backends",
    "available_families",
    "available_metrics",
    "best_connected_level_set",
    "best_kcore_set",
    "best_level_set",
    "best_single_kcore",
    "family_set_scores",
    "get_family",
    "build_core_forest",
    "core_app",
    "core_decomposition",
    "best_sets_by_family",
    "densest_subgraph_exact",
    "get_backend",
    "get_metric",
    "greedy_peel_densest",
    "incremental_core_numbers",
    "kcore_scores",
    "kcore_set_scores",
    "label_propagation",
    "load_dataset",
    "load_edge_list",
    "louvain",
    "max_clique",
    "opt_d",
    "order_vertices",
    "partition_modularity",
    "register_backend",
    "register_family",
    "register_metric",
    "s_core_decomposition",
    "save_edge_list",
    "truss_decomposition",
]
