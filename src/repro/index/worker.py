"""Pool-worker entry point for parallel index builds.

Lives at module top level (not a closure) so ``ProcessPoolExecutor`` can
dispatch it by reference.  A task is a plain tuple — the picklable
:class:`~repro.parallel.GraphHandle` plus the family name, params,
backend name and wanted artifact names — and the result is the artifacts
in their array form (:func:`repro.index.store.dump_artifact`), which the
parent rehydrates through the same codec as a disk bundle.  The graph
itself never crosses the pipe in shared-memory mode: workers attach to
the parent's CSR buffers.

Observability rides the same channel: the worker wraps its builds in a
``worker:build`` span inside an :meth:`repro.obs.Recorder.capture`
window, and the captured spans and counter deltas travel back in the
result tuple as plain picklable data.  The parent grafts them under its
``index:prebuild`` span (:meth:`~repro.obs.Recorder.adopt_spans`), so a
trace shows child-process work nested where it logically happened —
and because capture *extracts*, the serial in-process fallback records
each span exactly once too.
"""

from __future__ import annotations

import gc
import os

import numpy as np

from .. import obs
from ..engine.family import get_family
from ..errors import ReproError
from .store import dump_artifact, persisted_names

__all__ = ["build_family_artifacts"]


def build_family_artifacts(
    task,
) -> tuple[
    str, dict[str, dict[str, np.ndarray]], dict[str, float], list[dict], dict, dict,
]:
    """Build the requested artifacts of one family in this process.

    ``task`` is ``(handle, family_name, params, backend_name, names)``.
    Returns
    ``(family_name, payloads, build_seconds, spans, counters, histograms)``;
    payload arrays are fresh (never views into the shared graph), so
    pickling them back is safe and the shared mapping can be released.
    ``spans`` / ``counters`` / ``histograms`` are the obs records captured
    while building, exported as plain data for the parent to adopt.
    Families whose params are invalid here (exactly the errors the serial
    sweep skips) return an empty payload instead of poisoning the whole
    pool map.
    """
    handle, family_name, params, backend_name, names = task
    graph = release = None
    try:
        from .bestk_index import BestKIndex

        fam = get_family(family_name)
        payloads: dict[str, dict[str, np.ndarray]] = {}
        seconds: dict[str, float] = {}
        with obs.capture() as cap:
            with obs.span(
                "worker:build",
                family=family_name,
                pid=os.getpid(),
                artifacts=",".join(names),
            ) as sp:
                obs.add("pool.task", worker=str(os.getpid()))
                # Attaching inside the capture window ships the shm.attach
                # counter back with the result, so the parent's totals say
                # how workers actually received the graph.
                graph, release = handle.attach()
                # jobs=1: the worker is already one fan-out leaf.
                index = BestKIndex(graph, backend=backend_name, jobs=1, store=False)
                try:
                    for name in names:
                        index.artifact(fam, name, **params)
                except (ReproError, TypeError):
                    sp.set_attr("skipped", "invalid_params")
                else:
                    eligible = persisted_names(fam)
                    for name in names:
                        if name not in eligible:
                            continue
                        payload = dump_artifact(
                            fam, name, index.artifact(fam, name, **params)
                        )
                        if payload is not None:
                            payloads[name] = {
                                field: np.ascontiguousarray(arr)
                                for field, arr in payload.items()
                            }
                    seconds = dict(index.build_seconds)
        return family_name, payloads, seconds, cap.spans, cap.counters, cap.histograms
    finally:
        # Views into the shared segment must be collectable before close.
        index = fam = graph = None
        gc.collect()
        if release is not None:
            release()
