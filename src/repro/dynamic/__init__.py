"""``repro.dynamic`` — versioned graphs and incremental core maintenance.

The mutability seam of the package.  Everything else in ``repro`` works
on frozen CSR snapshots; this package is how a snapshot *becomes the
next one*:

:class:`GraphDelta`
    A validated, canonicalised batch of edge inserts/deletes.
:class:`VersionedGraph`
    Wraps a snapshot with an epoch counter and lineage; ``apply(delta)``
    returns the next epoch as a fresh immutable ``Graph`` whose content
    digest is epoch-stamped (:func:`stamp_epoch_digest`), so artifact
    store identity stays correct by construction.
:func:`incremental_core_numbers`
    Core maintenance: repair coreness inside the touched subcores with
    one ``subcore_repair`` kernel dispatch, or fall back to a full kernel
    peel when locality cannot pay off (classified on the
    ``dynamic.maintain`` obs counter).  A measured cost model
    (:func:`plan_maintenance`) picks between the two per delta;
    ``plan=`` overrides it, and the verdict lands on
    ``dynamic.plan{choice,reason}``.

Layering: this package sits beside :mod:`repro.parallel` — it may import
``graph``, ``errors``, ``kernels`` and ``obs``, and must never import
``engine``, ``index``, ``parallel`` or any family package; families in
turn never import it (``scripts/check_imports.py`` enforces both
directions).  :class:`repro.index.BestKIndex` consumes this package from
above via ``index.apply(delta)``.
"""

from __future__ import annotations

from .delta import GraphDelta, edges_from_file
from .maintain import MaintainResult, incremental_core_numbers
from .planner import (
    PLAN_CHOICES,
    MaintenancePlan,
    plan_maintenance,
    resolve_plan_override,
)
from .versioned import VersionedGraph, stamp_epoch_digest

__all__ = [
    "PLAN_CHOICES",
    "GraphDelta",
    "MaintainResult",
    "MaintenancePlan",
    "VersionedGraph",
    "edges_from_file",
    "incremental_core_numbers",
    "plan_maintenance",
    "resolve_plan_override",
    "stamp_epoch_digest",
]
