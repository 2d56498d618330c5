"""Zero-copy parallel execution layer.

Two pieces, deliberately free of any knowledge of hierarchy families,
kernels or the index (the import-layering contract pins this package
above ``graph`` and below ``index``/``apps``):

* :mod:`repro.parallel.shm` — export a CSR graph into
  ``multiprocessing.shared_memory`` once and attach zero-copy from worker
  processes (pickle fallback when unavailable);
* :mod:`repro.parallel.pool` — ordered process-pool mapping with a
  serial fallback and ``REPRO_JOBS`` resolution.

Consumers: :class:`repro.index.BestKIndex` (``jobs=`` prebuild), the CLI
(``--jobs``), and ``benchmarks/bench_parallel.py``.
"""

from .pool import parallel_map, resolve_jobs
from .shm import (
    GraphHandle,
    SharedGraph,
    cleanup_shared_memory,
    shared_graph,
    shm_available,
)

__all__ = [
    "GraphHandle",
    "SharedGraph",
    "cleanup_shared_memory",
    "parallel_map",
    "resolve_jobs",
    "shared_graph",
    "shm_available",
]
