"""Process fan-out for parallel index builds.

:func:`parallel_map` is the one dispatch primitive: an ordered map over
tasks that runs in-process when a single worker is requested (or only one
task exists) and through a ``ProcessPoolExecutor`` otherwise.
Environments where pools cannot start (sandboxes without semaphores or
fork) and pools that die mid-round degrade to the serial path instead of
erroring — results are identical either way, which is what lets every
caller treat ``jobs`` as a pure performance knob.  Every dispatch runs
inside a ``parallel:map`` :mod:`repro.obs` span whose ``mode`` attribute
says whether a pool actually ran, and serial fallbacks carry a
``degraded`` reason (``one_task``, ``one_worker``, ``pool_start_failure``,
``pool_failure``) that is also counted on the ``parallel.map`` counter.

:func:`build_family_artifacts` is the pool-worker entry point; it lives at
module top level (not a closure) so the pool can dispatch it by
reference.  A task is a plain tuple — the :class:`~repro.graph.csr.Graph`
itself (pickled through ``Graph.__reduce__``: the two CSR arrays, never
the epoch-stamped digest) plus the family name, params, backend name and
wanted artifact names — and the result is the artifacts in their array
form (:func:`repro.index.store.dump_artifact`), which the parent
rehydrates through the same codec as a disk bundle.

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

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .. import obs
from ..engine.family import get_family
from ..errors import ReproError
from .store import dump_artifact, persisted_names

__all__ = ["build_family_artifacts", "parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _fork_context():
    # fork keeps worker start-up cheap on POSIX (no re-import, inherited
    # modules make task functions picklable by reference); other platforms
    # use their default start method.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def parallel_map(
    fn: Callable[[_T], _R], tasks: Iterable[_T], *, jobs: int
) -> list[_R]:
    """Ordered ``[fn(t) for t in tasks]`` across up to ``jobs`` processes.

    Worker exceptions propagate to the caller exactly as in the serial
    path.  ``fn`` must be a module-level callable and each task payload
    picklable.
    """
    task_list: Sequence[_T] = list(tasks)
    workers = min(jobs, len(task_list))
    with obs.span("parallel:map", tasks=len(task_list), requested=jobs) as sp:

        def serial(reason: str) -> list[_R]:
            sp.update(mode="serial", degraded=reason)
            obs.add("parallel.map", mode="serial", degraded=reason)
            return [fn(task) for task in task_list]

        if workers <= 1:
            return serial("one_worker" if jobs <= 1 else "one_task")
        try:
            executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=_fork_context()
            )
        except (OSError, PermissionError, ValueError):
            return serial("pool_start_failure")
        try:
            with executor:
                results = list(executor.map(fn, task_list))
        except (OSError, PermissionError, BrokenProcessPool):
            # The pool died (sandboxed semaphores, fork limits, a worker
            # killed mid-round); the serial path computes the identical
            # answer.
            return serial("pool_failure")
        sp.update(mode="pool", workers=workers)
        obs.add("parallel.map", mode="pool")
        obs.set_gauge("parallel.pool_workers", workers)
        return results


def build_family_artifacts(
    task,
) -> tuple[
    str, dict[str, dict[str, np.ndarray]], dict[str, float], list[dict], dict, dict,
]:
    """Build the requested artifacts of one family in this process.

    ``task`` is ``(graph, family_name, params, backend_name, names)``.
    Returns
    ``(family_name, payloads, build_seconds, spans, counters, histograms)``.
    ``spans`` / ``counters`` / ``histograms`` are the obs records captured
    while building, exported as plain data for the parent to adopt.
    Families whose params are invalid here (exactly the errors the serial
    sweep skips) return an empty payload instead of poisoning the whole
    pool map.
    """
    graph, family_name, params, backend_name, names = task
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
            index = BestKIndex(graph, backend=backend_name, store=False)
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
                        payloads[name] = payload
                seconds = dict(index.build_seconds)
    return family_name, payloads, seconds, cap.spans, cap.counters, cap.histograms
