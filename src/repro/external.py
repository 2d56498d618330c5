"""Semi-external core decomposition: coreness of a graph kept on disk.

The peel (:func:`repro.core.core_decomposition`) needs the whole CSR in
RAM.  This module computes the same coreness when it does not fit: the
edges live in an mmap'd ``.npy`` file, the CSR is built *on disk* in
chunked passes, and coreness is reached as the fixpoint of the h-index
operator (Lü et al. 2016; Montresor et al.'s distributed formulation),
which needs nothing but neighbour reads per vertex:

    c_0(v)     = deg(v)
    c_{i+1}(v) = H({ c_i(u) : u in N(v) })          (clipped to c_i(v))

The operator is monotone non-increasing and converges to the exact
coreness, so the result is **bit-identical** to the peel.  Each round is
a Jacobi sweep: the ``hindex_fixpoint`` kernel of the selected backend
reads a frozen estimate vector, and refreshed values are applied only
after the sweep.  A round refreshes just the *active frontier* — vertices
with a neighbour whose new value undercut their own estimate.

Memory stays O(n) plus bounded slices: every kernel call and frontier
expansion gathers at most ``max_slice_bytes`` of adjacency (one row is
the atomic unit), and the build never holds more than ``chunk_edges``
edge pairs.  An optional checkpoint store
(:class:`~repro.index.store.ArtifactStore` qualifies) persists the
estimate vector after every round, so an interrupted run resumes instead
of restarting from degrees.

Observability: the run is an ``external:decompose`` span, the CSR build
an ``external:build`` span, each sweep an ``external:round`` span
carrying ``active``/``changed`` counts, and the rounds-to-convergence
lands on the ``external:rounds`` gauge (surfaced by ``bestk stats``).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import obs
from .errors import GraphFormatError
from .graph.csr import Graph
from .kernels import get_backend
from .kernels.common import concat_ranges

__all__ = [
    "SemiExternalResult",
    "row_ranges",
    "semi_external_core_numbers",
    "write_edge_npy",
]

#: Default number of edge pairs per chunk in the on-disk CSR build passes
#: (~4 MiB of edge pairs resident at a time).
DEFAULT_CHUNK_EDGES = 1 << 18


@dataclass(frozen=True)
class SemiExternalResult:
    """Outcome of one semi-external decomposition."""

    #: Exact coreness per vertex — bit-identical to the peel.
    coreness: np.ndarray
    #: Sweeps executed until the frontier emptied (including the final
    #: all-quiet sweep; rounds resumed from a checkpoint count).
    rounds: int
    #: Largest adjacency slice or edge chunk (bytes) any single kernel
    #: call, frontier expansion or build pass held at once.
    peak_slice_bytes: int
    #: Round the run resumed from via a checkpoint (0 = cold).
    resumed_round: int = 0


def _capped_runs(lens: np.ndarray, cap_entries: int) -> list[tuple[int, int]]:
    """Cut ``lens`` into consecutive ``[start, stop)`` runs summing to at
    most ``cap_entries`` (an item larger than the cap stands alone)."""
    cum = np.cumsum(lens)
    runs = []
    start = 0
    while start < len(lens):
        base = int(cum[start - 1]) if start else 0
        stop = int(np.searchsorted(cum, base + cap_entries, side="right"))
        stop = max(stop, start + 1)
        runs.append((start, stop))
        start = stop
    return runs


def row_ranges(indptr: np.ndarray, cap_entries: int) -> list[tuple[int, int]]:
    """Contiguous vertex ranges ``[(lo, hi), ...]`` covering the CSR whose
    rows hold at most ``cap_entries`` adjacency entries each (a single
    larger row forms its own range)."""
    return _capped_runs(np.diff(indptr), max(1, int(cap_entries)))


def write_edge_npy(edges, path) -> Path:
    """Persist an ``(m, 2)`` int64 edge array as the mmap-able ``.npy``
    input of :func:`semi_external_core_numbers`.

    Edges must be clean (no self loops / duplicates in either
    orientation), exactly as :meth:`~repro.graph.csr.Graph.from_edges`
    requires; the decomposition rejects unclean files.
    """
    arr = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError("edges must be an (m, 2) array of vertex pairs")
    path = Path(path)
    with open(path, "wb") as fh:
        np.save(fh, arr)
    return path


def _external_csr_build(
    edges: np.ndarray,
    num_vertices: int | None,
    workdir: Path,
    chunk_edges: int,
) -> tuple[Graph, int]:
    """Chunked passes over an mmap'd edge list → on-disk CSR.

    Pass 1 accumulates degrees (O(n) RAM) and rejects out-of-range
    endpoints and self loops per chunk; pass 2 scatters both directions
    of each chunk into a memmap'd indices file using a moving per-vertex
    cursor; pass 3 sorts row ranges of at most ``chunk_edges`` entries
    to reject duplicate edges (in either orientation, a duplicate
    repeats a neighbour within a row).  Returns the CSR as a graph whose
    indices are a read-only memory map, plus the largest chunk or
    row-range slice held (bytes).
    """
    m = len(edges)
    n = int(num_vertices) if num_vertices is not None else 0
    peak = min(chunk_edges, m) * 16  # resident edge-pair chunk bytes
    if num_vertices is None:
        for start in range(0, m, chunk_edges):
            chunk = np.asarray(edges[start:start + chunk_edges])
            if chunk.size:
                n = max(n, int(chunk.max()) + 1)
    degrees = np.zeros(n, dtype=np.int64)
    for start in range(0, m, chunk_edges):
        chunk = np.asarray(edges[start:start + chunk_edges])
        if chunk.size == 0:
            continue
        if chunk.min() < 0 or chunk.max() >= n:
            raise GraphFormatError("edge endpoint out of range")
        if (chunk[:, 0] == chunk[:, 1]).any():
            raise GraphFormatError("self loops are not allowed")
        degrees += np.bincount(chunk.ravel(), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indptr_path = workdir / "indptr.npy"
    with open(indptr_path, "wb") as fh:
        np.save(fh, indptr)
    indices_path = workdir / "indices.npy"
    sink = np.lib.format.open_memmap(
        indices_path, mode="w+", dtype=np.int64, shape=(int(indptr[-1]),)
    )
    cursor = indptr[:-1].copy()
    for start in range(0, m, chunk_edges):
        chunk = np.asarray(edges[start:start + chunk_edges])
        if chunk.size == 0:
            continue
        for src, dst in ((chunk[:, 0], chunk[:, 1]), (chunk[:, 1], chunk[:, 0])):
            order = np.argsort(src, kind="stable")
            s, d = src[order], dst[order]
            # Rank within each equal-source run: position minus the run's
            # first index (searchsorted of s into itself).
            local = np.arange(len(s), dtype=np.int64) - np.searchsorted(s, s)
            sink[cursor[s] + local] = d
            uniq, counts = np.unique(s, return_counts=True)
            cursor[uniq] += counts
    sink.flush()
    del sink
    indices = np.load(indices_path, mmap_mode="r")
    for lo, hi in row_ranges(indptr, chunk_edges):
        a, b = int(indptr[lo]), int(indptr[hi])
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo:hi + 1]))
        nbrs = np.asarray(indices[a:b])
        order = np.lexsort((nbrs, rows))
        nbrs, rows = nbrs[order], rows[order]
        peak = max(peak, (b - a) * 16)
        if ((nbrs[1:] == nbrs[:-1]) & (rows[1:] == rows[:-1])).any():
            raise GraphFormatError("duplicate edges found")
    return Graph.from_arrays(indptr, indices, validate=False), peak


def _expand_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    estimate: np.ndarray,
    changed: np.ndarray,
    new_vals: np.ndarray,
    cap_entries: int,
) -> tuple[np.ndarray, int]:
    """Next round's frontier: neighbours undercut by a changed vertex.

    A neighbour ``u`` needs refreshing only if some changed ``v`` dropped
    *below* ``u``'s estimate — values still ``>= est[u]`` contribute to
    ``u``'s h-index exactly as before.  The adjacency gather honours the
    ``cap_entries`` slice bound (the accumulated frontier itself is O(n),
    which the semi-external model allows).  Returns ``(frontier,
    peak_entries)``.
    """
    lens = indptr[changed + 1] - indptr[changed]
    frontier = np.empty(0, dtype=np.int64)
    peak = 0
    for start, stop in _capped_runs(lens, cap_entries):
        part = changed[start:stop]
        starts, stops = indptr[part], indptr[part + 1]
        nbrs = concat_ranges(indices, starts, stops)
        peak = max(peak, nbrs.size)
        undercut = estimate[nbrs] > np.repeat(new_vals[start:stop], stops - starts)
        frontier = np.union1d(frontier, nbrs[undercut])
    return frontier, peak


def _run_fixpoint(
    graph: Graph,
    backend,
    estimate: np.ndarray,
    start_round: int,
    cap_entries: int,
    on_round_end,
) -> tuple[int, int]:
    """Iterate Jacobi sweeps from the full vertex set until the frontier
    empties, updating ``estimate`` in place.  Returns ``(rounds,
    peak_entries)``; rounds include the ``start_round`` resumed ones."""
    indptr, indices = graph.indptr, graph.indices
    active = np.arange(graph.num_vertices, dtype=np.int64)
    rounds = start_round
    peak_entries = 0
    while active.size:
        rounds += 1
        round_start = time.perf_counter()
        with obs.span("external:round", round=rounds, active=int(active.size)) as sp:
            lens = indptr[active + 1] - indptr[active]
            parts = []
            # hindex_fixpoint never writes the estimate, so chunk after
            # chunk still reads the frozen round-start vector.
            for start, stop in _capped_runs(lens, cap_entries):
                peak_entries = max(peak_entries, int(lens[start:stop].sum()))
                parts.append(backend.hindex_fixpoint(graph, estimate, active[start:stop]))
            new = np.concatenate(parts)
            changed_mask = new != estimate[active]
            changed, new_vals = active[changed_mask], new[changed_mask]
            sp.update(changed=int(changed.size))
            estimate[changed] = new_vals
            active, peak = _expand_frontier(
                indptr, indices, estimate, changed, new_vals, cap_entries
            )
            peak_entries = max(peak_entries, peak)
        obs.observe("external.round_seconds", time.perf_counter() - round_start)
        on_round_end(rounds, estimate)
    return rounds, peak_entries


def semi_external_core_numbers(
    edges_path,
    *,
    num_vertices: int | None = None,
    backend=None,
    workdir=None,
    shard_store=None,
    store_key: str | None = None,
    max_slice_bytes: int | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> SemiExternalResult:
    """Decompose a graph larger than RAM from an mmap'd ``.npy`` edge list.

    The edge file (see :func:`write_edge_npy`) is never loaded whole: the
    CSR is built on disk in ``chunk_edges``-sized passes, the fixpoint
    reads its adjacency through a read-only memory map, and every kernel invocation
    gathers at most ``max_slice_bytes`` of adjacency (default: one
    eighth of the on-disk CSR) — the result's ``peak_slice_bytes``
    reports the largest slice actually held.  Self loops, duplicate
    edges and out-of-range endpoints raise
    :class:`~repro.errors.GraphFormatError`, as in
    :meth:`~repro.graph.csr.Graph.from_edges`.

    ``shard_store`` is any object with ``save_shard_state`` /
    ``load_shard_state`` / ``clear_shard_state``
    (:class:`~repro.index.store.ArtifactStore` qualifies); when given,
    every round checkpoints the estimate vector under ``store_key`` so an
    interrupted run resumes from the last completed round.  ``workdir``
    keeps the on-disk CSR for reuse; by default a temporary directory is
    used and removed.
    """
    edges_path = Path(edges_path)
    edges = np.load(edges_path, mmap_mode="r", allow_pickle=False)
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype != np.int64:
        raise GraphFormatError(
            f"{edges_path} must hold an (m, 2) int64 edge array"
        )
    own_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="repro-external-")) if own_workdir \
        else Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with obs.span("external:decompose", edges=len(edges)) as sp:
            with obs.span("external:build", chunk_edges=chunk_edges):
                graph, peak_build = _external_csr_build(
                    edges, num_vertices, workdir, chunk_edges
                )
            n = graph.num_vertices
            if max_slice_bytes is None:
                max_slice_bytes = max(32768, graph.indices.nbytes // 8)
            cap_entries = max(1, int(max_slice_bytes) // 8)
            if store_key is None:
                store_key = f"semiext|{edges_path.resolve()}|m{len(edges)}|n{n}"

            estimate = np.array(graph.degrees(), dtype=np.int64)
            start_round = 0
            state = None if shard_store is None \
                else shard_store.load_shard_state(store_key)
            if state is not None and len(state[0]) == n:
                # The frontier is not checkpointed; the first sweep covers
                # every vertex and re-derives it (monotone, so correctness
                # is free).
                estimate[:] = state[0]
                start_round = state[1]
                obs.add("external.resume")

            def checkpoint(round_: int, est: np.ndarray) -> None:
                if shard_store is not None:
                    shard_store.save_shard_state(store_key, est, round_)

            rounds, peak_entries = _run_fixpoint(
                graph, get_backend(backend), estimate, start_round,
                cap_entries, checkpoint,
            )
            if shard_store is not None:
                shard_store.clear_shard_state(store_key)
            peak_bytes = max(peak_entries * 8, peak_build)
            sp.update(
                rounds=rounds, peak_slice_bytes=peak_bytes,
                resumed_round=start_round,
            )
        obs.set_gauge("external:rounds", rounds)
        return SemiExternalResult(
            coreness=estimate, rounds=rounds, peak_slice_bytes=peak_bytes,
            resumed_round=start_round,
        )
    finally:
        del edges
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
