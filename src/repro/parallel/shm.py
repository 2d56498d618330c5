"""Zero-copy graph handoff between processes via POSIX shared memory.

The fan-out layer's whole point is that a worker should *attach* to the
parent's CSR arrays instead of receiving a reserialized copy per task:
:class:`SharedGraph` exports a graph's ``indptr``/``indices`` into
``multiprocessing.shared_memory`` segments once, and the picklable
:class:`GraphHandle` it produces reconstructs a :class:`~repro.graph.csr.
Graph` in any process as read-only views over those same buffers — O(1)
per task regardless of graph size.

When shared memory is unavailable (no ``/dev/shm``, a sandbox denying the
syscalls, or ``REPRO_NO_SHM=1`` forcing it off for tests) the handle
degrades to carrying the pickled arrays; workers then pay one copy per
task but results are identical.

Lifecycle / cleanup rules (DESIGN.md section 2d):

* the creating process owns the segments; :meth:`SharedGraph.close` both
  closes and unlinks them and is idempotent;
* every live :class:`SharedGraph` is tracked in a module registry flushed
  by :func:`cleanup_shared_memory`, which the CLI runs on every exit path
  and which is also registered ``atexit`` — an interrupted run never
  leaks ``/dev/shm`` blocks;
* workers call the ``release`` callback returned by
  :meth:`GraphHandle.attach` (close only, never unlink) after dropping
  their array views.
"""

from __future__ import annotations

import atexit
import os
import threading

import numpy as np

from .. import obs
from ..graph.csr import Graph

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

__all__ = [
    "GraphHandle",
    "SharedGraph",
    "shared_graph",
    "cleanup_shared_memory",
    "shm_available",
]

#: Live shared-memory owners; strong references so an abandoned (never
#: closed) export is still unlinked by the atexit hook.
_LIVE: set = set()
_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def shm_available() -> bool:
    """Whether the zero-copy path is available (and not forced off)."""
    if os.environ.get("REPRO_NO_SHM", "").strip():
        return False
    return _shared_memory is not None


def cleanup_shared_memory() -> int:
    """Close and unlink every live shared-memory export.

    Safe to call repeatedly and from ``finally`` blocks; returns the
    number of segments released.
    """
    with _LOCK:
        owners = list(_LIVE)
    return sum(owner.close() for owner in owners)


def _track(owner) -> None:
    global _ATEXIT_REGISTERED
    with _LOCK:
        _LIVE.add(owner)
        if not _ATEXIT_REGISTERED:
            atexit.register(cleanup_shared_memory)
            _ATEXIT_REGISTERED = True


class _no_tracker_registration:
    """Suppress resource-tracker registration while attaching (bpo-38119).

    An attaching process must not claim segment ownership: with a private
    tracker (spawn) the claim unlinks the parent's segment when the worker
    exits; with the inherited tracker (fork) register is an idempotent
    set-add but a compensating unregister would *remove* the parent's own
    claim and make its final unlink complain.  Not registering at all — the
    ``track=False`` of Python 3.13+ — is correct for both, so emulate it by
    no-opping ``register`` for the duration of the ``SharedMemory`` call.
    """

    def __enter__(self):
        try:
            from multiprocessing import resource_tracker

            self._mod = resource_tracker
            self._orig = resource_tracker.register
            resource_tracker.register = lambda *a, **kw: None
        except Exception:  # pragma: no cover - tracker always importable
            self._mod = None
        return self

    def __exit__(self, *exc):
        if self._mod is not None:
            self._mod.register = self._orig


class GraphHandle:
    """Picklable descriptor of an exported graph.

    ``mode == "shm"``: carries segment names only; :meth:`attach` maps the
    parent's buffers zero-copy.  ``mode == "pickle"``: carries the CSR
    arrays themselves (the fallback).
    """

    __slots__ = ("mode", "segments", "arrays")

    def __init__(self, mode: str, *, segments=None, arrays=None):
        self.mode = mode
        #: ``((name, length), (name, length))`` for indptr, indices.
        self.segments = segments
        self.arrays = arrays

    def attach(self):
        """Return ``(graph, release)`` for this process.

        ``release()`` closes this process's mapping (never unlinking the
        segment — the creator owns it); call it only after dropping every
        reference into the graph's arrays.  In pickle mode it is a no-op.
        """
        obs.add("shm.attach", mode=self.mode)
        if self.mode == "pickle":
            indptr, indices = self.arrays
            return Graph.from_arrays(indptr, indices, validate=False), lambda: None
        shms = []
        views = []
        for name, length in self.segments:
            with _no_tracker_registration():
                shm = _shared_memory.SharedMemory(name=name)
            shms.append(shm)
            views.append(np.ndarray((length,), dtype=np.int64, buffer=shm.buf))
        graph = Graph.from_arrays(views[0], views[1], validate=False)

        def release() -> None:
            for shm in shms:
                try:
                    shm.close()
                except BufferError:
                    # A view still references the buffer; process exit will
                    # release the mapping instead.
                    pass

        return graph, release

    def __repr__(self) -> str:
        return f"GraphHandle(mode={self.mode!r})"


class SharedGraph:
    """One graph exported to shared memory, plus its cleanup.

    Usable as a context manager; creation copies the two CSR arrays into
    fresh segments once, after which any number of worker attachments are
    zero-copy.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._shms: list = []
        self.handle = self._export(graph)
        if self._shms:
            _track(self)

    def _export(self, graph: Graph) -> GraphHandle:
        if not shm_available():
            # Distinguish the operator forcing shm off from a platform
            # without it: benchmarks read this counter to know why the
            # zero-copy path was skipped.
            reason = "forced_off" if os.environ.get("REPRO_NO_SHM", "").strip() \
                else "unavailable"
            obs.add("shm.export", mode="pickle", reason=reason)
            return GraphHandle("pickle", arrays=(graph.indptr, graph.indices))
        try:
            segments = []
            for arr in (graph.indptr, graph.indices):
                # Zero-size segments are rejected by the OS; round up.
                shm = _shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
                view = np.ndarray(arr.shape, dtype=np.int64, buffer=shm.buf)
                view[:] = arr
                del view
                self._shms.append(shm)
                segments.append((shm.name, len(arr)))
            obs.add("shm.export", mode="shm")
            return GraphHandle("shm", segments=tuple(segments))
        except (OSError, ValueError):
            self.close()
            obs.add("shm.export", mode="pickle", reason="export_failed")
            return GraphHandle("pickle", arrays=(graph.indptr, graph.indices))

    def close(self) -> int:
        """Close and unlink the segments (idempotent); returns count released."""
        released = 0
        shms, self._shms = self._shms, []
        for shm in shms:
            try:
                shm.close()
            except (BufferError, OSError):
                pass
            try:
                shm.unlink()
                released += 1
            except (FileNotFoundError, OSError):
                pass
        with _LOCK:
            _LIVE.discard(self)
        return released

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SharedGraph({self.graph!r}, mode={self.handle.mode!r})"


def shared_graph(graph: Graph) -> SharedGraph:
    """Export ``graph`` for worker handoff (context-manager friendly)."""
    return SharedGraph(graph)
