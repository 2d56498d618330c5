"""Tests for :mod:`repro.external` — the semi-external h-index fixpoint.

The load-bearing property is **bit-identity**: the out-of-core fixpoint
must answer exactly like Batagelj–Zaversnik peeling for every backend,
however the build and the sweeps are cut into slices, and across a
checkpoint resume.  The pathological zoo (isolated vertices, stars,
cliques, disconnected components, kmax=1 paths) exercises the corner
cases where a sloppy h-index operator diverges from true coreness.  The
memory-cap test pins the reason the path exists: it finishes where the
in-RAM peel cannot.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core import core_decomposition
from repro.errors import GraphFormatError
from repro.external import (
    SemiExternalResult,
    row_ranges,
    semi_external_core_numbers,
    write_edge_npy,
)
from repro.generators import powerlaw_chung_lu
from repro.graph import Graph
from repro.index import ArtifactStore
from repro.kernels import get_backend

from conftest import random_graph, zoo_params

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

BACKENDS = ("python", "numpy")
#: How many slices the build passes and each sweep are cut into.
SLICE_COUNTS = (1, 2, 4)


@pytest.fixture(autouse=True)
def clean_recorder():
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.enable()


def peel_coreness(graph: Graph) -> list[int]:
    return core_decomposition(graph).coreness.tolist()


def child_env(**overrides) -> dict:
    """Environment for a child interpreter importing this checkout."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE", None)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    env.update(overrides)
    return env


def semi_external(graph: Graph, tmp_path, *, slices: int = 1, **kwargs):
    """Decompose ``graph`` out of core with the work cut into ``slices``."""
    path = write_edge_npy(graph.edge_array(), tmp_path / "edges.npy")
    m = max(graph.num_edges, 1)
    return semi_external_core_numbers(
        path, num_vertices=graph.num_vertices, chunk_edges=-(-m // slices),
        max_slice_bytes=16 * m // slices, **kwargs,
    )


# ----------------------------------------------------------------------
# The h-index kernels themselves
# ----------------------------------------------------------------------

class TestHindexKernel:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_step_from_degrees(self, figure2, backend):
        b = get_backend(backend)
        est = np.array(figure2.degrees(), dtype=np.int64)
        verts = np.arange(figure2.num_vertices, dtype=np.int64)
        out = b.hindex_fixpoint(figure2, est, verts)
        # Monotone non-increasing and never below true coreness.
        assert (out <= est).all()
        assert (out >= core_decomposition(figure2).coreness).all()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_vertex_set(self, figure2, backend):
        b = get_backend(backend)
        est = np.array(figure2.degrees(), dtype=np.int64)
        out = b.hindex_fixpoint(figure2, est, np.empty(0, dtype=np.int64))
        assert out.size == 0 and out.dtype == np.int64

    def test_backends_agree_per_round(self, figure2):
        py, np_ = get_backend("python"), get_backend("numpy")
        est = np.array(figure2.degrees(), dtype=np.int64)
        verts = np.arange(figure2.num_vertices, dtype=np.int64)
        for _ in range(4):
            a = py.hindex_fixpoint(figure2, est, verts)
            b = np_.hindex_fixpoint(figure2, est, verts)
            assert a.tolist() == b.tolist()
            est = np.array(est)
            est[verts] = a

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_never_writes_estimate(self, figure2, backend):
        b = get_backend(backend)
        est = np.array(figure2.degrees(), dtype=np.int64)
        frozen = est.copy()
        verts = np.arange(figure2.num_vertices, dtype=np.int64)
        b.hindex_fixpoint(figure2, est, verts)
        assert est.tolist() == frozen.tolist()


# ----------------------------------------------------------------------
# Bit-identity across the pathological zoo
# ----------------------------------------------------------------------

class TestBitIdentity:
    @zoo_params()
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("slices", SLICE_COUNTS)
    def test_zoo(self, graph, backend, slices, tmp_path):
        res = semi_external(graph, tmp_path, slices=slices, backend=backend)
        assert res.coreness.tolist() == peel_coreness(graph)
        assert res.coreness.dtype == np.int64

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("slices", SLICE_COUNTS)
    def test_pathological_fixtures(
        self, isolated_vertices, star, clique6, two_components, path5,
        backend, slices, tmp_path,
    ):
        for g in (isolated_vertices, star, clique6, two_components, path5):
            res = semi_external(g, tmp_path, slices=slices, backend=backend)
            assert res.coreness.tolist() == peel_coreness(g)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_graphs(self, backend, tmp_path):
        for seed in (1, 7, 42):
            g = random_graph(90, 420, seed=seed)
            res = semi_external(g, tmp_path, slices=3, backend=backend)
            assert res.coreness.tolist() == peel_coreness(g)

    def test_empty_graph(self, empty_graph, tmp_path):
        res = semi_external(empty_graph, tmp_path)
        assert res.coreness.size == 0
        assert res.rounds == 0

    def test_result_metadata(self, figure2, tmp_path):
        res = semi_external(figure2, tmp_path, slices=2)
        assert isinstance(res, SemiExternalResult)
        assert res.rounds >= 1
        assert res.peak_slice_bytes > 0
        assert res.resumed_round == 0


# ----------------------------------------------------------------------
# Row ranges (the bounded slices of the on-disk CSR)
# ----------------------------------------------------------------------

class TestShardRanges:
    def test_cover_and_disjoint(self):
        g = random_graph(100, 500, seed=9)
        for cap in (1, 50, 300, 10_000):
            ranges = row_ranges(g.indptr, cap)
            assert ranges[0][0] == 0 and ranges[-1][1] == g.num_vertices
            for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
                assert a_hi == b_lo

    def test_edge_balance(self):
        g = random_graph(200, 2000, seed=13)
        cap = 500
        ranges = row_ranges(g.indptr, cap)
        loads = [int(g.indptr[hi] - g.indptr[lo]) for lo, hi in ranges]
        # Within the cap unless one row alone exceeds it; greedy cuts keep
        # every adjacent pair of ranges above the cap.
        assert all(load <= cap or hi - lo == 1 for load, (lo, hi) in zip(loads, ranges))
        assert all(a + b > cap for a, b in zip(loads, loads[1:]))

    def test_empty_graph(self):
        assert row_ranges(np.zeros(1, dtype=np.int64), 4) == []

    def test_more_shards_than_vertices(self, triangle):
        # A cap below every row's length: one range per vertex.
        assert row_ranges(triangle.indptr, 1) == [(0, 1), (1, 2), (2, 3)]


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

class TestObservability:
    def test_round_gauge_emitted(self, figure2, tmp_path):
        res = semi_external(figure2, tmp_path)
        assert obs.gauges()["external:rounds"] == res.rounds

    def test_round_spans(self, figure2, tmp_path):
        res = semi_external(figure2, tmp_path)
        round_spans = obs.find_spans("external:round")
        assert len(round_spans) == res.rounds
        for sp in round_spans:
            assert "changed" in sp.attrs and "active" in sp.attrs
        (outer,) = obs.find_spans("external:decompose")
        assert outer.attrs["rounds"] == res.rounds
        assert obs.find_spans("external:build")

    def test_gauge_reaches_summary(self, figure2, tmp_path):
        semi_external(figure2, tmp_path)
        assert "external:rounds" in obs.summary()["gauges"]

    def test_stats_reports_rounds(self, figure2, tmp_path, capsys):
        from repro.cli import main

        edges = write_edge_npy(figure2.edge_array(), tmp_path / "edges.npy")
        trace = tmp_path / "trace.jsonl"
        script = (
            "import sys; from repro.external import semi_external_core_numbers; "
            "print(semi_external_core_numbers(sys.argv[1]).rounds)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(edges)],
            env=child_env(REPRO_TRACE=str(trace)), capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert main(["stats", str(trace)]) == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("external:rounds")
        ]
        assert rows and rows[0][1] == proc.stdout.strip()


# ----------------------------------------------------------------------
# Semi-external entry point
# ----------------------------------------------------------------------

class TestSemiExternal:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("slices", SLICE_COUNTS)
    def test_bit_identical(self, tmp_path, backend, slices):
        g = random_graph(80, 350, seed=17)
        path = write_edge_npy(g.edge_array(), tmp_path / "edges.npy")
        res = semi_external_core_numbers(
            path, num_vertices=g.num_vertices, backend=backend,
            max_slice_bytes=16 * g.num_edges // slices, chunk_edges=64,
        )
        assert res.coreness.tolist() == peel_coreness(g)

    def test_vertex_count_inferred(self, tmp_path, figure2):
        path = write_edge_npy(figure2.edge_array(), tmp_path / "edges.npy")
        res = semi_external_core_numbers(path, chunk_edges=8)
        assert res.coreness.tolist() == peel_coreness(figure2)

    def test_slice_cap_bounds_peak(self, tmp_path):
        g = random_graph(120, 900, seed=29)
        path = write_edge_npy(g.edge_array(), tmp_path / "edges.npy")
        csr_bytes = 2 * g.num_edges * 8
        cap = max(256, csr_bytes // 16)
        res = semi_external_core_numbers(
            path, num_vertices=g.num_vertices,
            max_slice_bytes=cap, chunk_edges=32,
        )
        assert res.coreness.tolist() == peel_coreness(g)
        # The memory bound the out-of-core path exists for: the largest
        # resident slice stays below the full CSR footprint.
        assert res.peak_slice_bytes < csr_bytes
        assert res.peak_slice_bytes <= max(cap, 32 * 16)

    def test_workdir_kept_when_given(self, tmp_path, figure2):
        path = write_edge_npy(figure2.edge_array(), tmp_path / "edges.npy")
        work = tmp_path / "csr"
        semi_external_core_numbers(
            path, num_vertices=figure2.num_vertices, workdir=work,
        )
        assert (work / "indptr.npy").exists()
        assert (work / "indices.npy").exists()
        indptr = np.load(work / "indptr.npy")
        assert indptr.tolist() == figure2.indptr.tolist()

    def test_rejects_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.npy"
        np.save(bad, np.arange(6, dtype=np.int64))
        with pytest.raises(GraphFormatError):
            semi_external_core_numbers(bad)

    def test_rejects_out_of_range_endpoint(self, tmp_path):
        path = write_edge_npy([(0, 5)], tmp_path / "edges.npy")
        with pytest.raises(GraphFormatError):
            semi_external_core_numbers(path, num_vertices=3)

    @pytest.mark.parametrize("chunk_edges", (1, 64))
    def test_rejects_self_loops(self, tmp_path, chunk_edges):
        edges = [(0, 0), (0, 1)]
        with pytest.raises(GraphFormatError):
            Graph.from_edges(edges)
        path = write_edge_npy(edges, tmp_path / "edges.npy")
        with pytest.raises(GraphFormatError, match="self loop"):
            semi_external_core_numbers(path, chunk_edges=chunk_edges)

    @pytest.mark.parametrize("chunk_edges", (1, 64))
    @pytest.mark.parametrize(
        "edges",
        [[(0, 1), (1, 0), (0, 1)], [(0, 1), (0, 1)], [(1, 2), (0, 1), (2, 1)]],
        ids=["both-orientations", "same-orientation", "reversed-later"],
    )
    def test_rejects_duplicate_edges(self, tmp_path, edges, chunk_edges):
        with pytest.raises(GraphFormatError):
            Graph.from_edges(edges)
        path = write_edge_npy(edges, tmp_path / "edges.npy")
        with pytest.raises(GraphFormatError, match="duplicate"):
            semi_external_core_numbers(path, chunk_edges=chunk_edges)

    def test_write_edge_npy_validates_shape(self, tmp_path):
        with pytest.raises(GraphFormatError):
            write_edge_npy(np.arange(9).reshape(3, 3), tmp_path / "e.npy")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_resume(self, tmp_path, backend):
        g = random_graph(70, 300, seed=31)
        path = write_edge_npy(g.edge_array(), tmp_path / "edges.npy")
        store = ArtifactStore(tmp_path / "cache")

        cold = semi_external_core_numbers(
            path, num_vertices=g.num_vertices, backend=backend,
            shard_store=store, store_key="resume-test",
        )
        assert cold.resumed_round == 0
        assert cold.coreness.tolist() == peel_coreness(g)
        # Converged runs clear their checkpoint.
        assert store.load_shard_state("resume-test") is None

        # Simulate an interruption after round 1: persist the one-round
        # estimate, then rerun with the store attached.
        est = np.array(g.degrees(), dtype=np.int64)
        verts = np.arange(g.num_vertices, dtype=np.int64)
        est1 = get_backend(backend).hindex_fixpoint(g, est, verts)
        store.save_shard_state("resume-test", est1, 1)

        warm = semi_external_core_numbers(
            path, num_vertices=g.num_vertices, backend=backend,
            shard_store=store, store_key="resume-test",
        )
        assert warm.resumed_round == 1
        assert warm.rounds > 1
        assert warm.coreness.tolist() == peel_coreness(g)
        assert obs.counter("external.resume") == 1

    def test_partial_checkpoint_is_ignored(self, tmp_path):
        g = random_graph(50, 180, seed=37)
        path = write_edge_npy(g.edge_array(), tmp_path / "edges.npy")
        store = ArtifactStore(tmp_path / "cache")
        # A well-formed record that covers only part of the vertex set.
        store.save_shard_state("partial", np.ones(g.num_vertices - 1, dtype=np.int64), 3)
        res = semi_external_core_numbers(
            path, num_vertices=g.num_vertices,
            shard_store=store, store_key="partial",
        )
        assert res.resumed_round == 0
        assert res.coreness.tolist() == peel_coreness(g)


# ----------------------------------------------------------------------
# Checkpoint persistence (ArtifactStore extension)
# ----------------------------------------------------------------------

class TestShardStateStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        est = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        store.save_shard_state("k1", est, 7)
        loaded, round_ = store.load_shard_state("k1")
        assert loaded.tolist() == est.tolist()
        assert loaded.dtype == np.int64
        assert round_ == 7

    def test_missing_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_shard_state("nope") is None

    def test_keys_are_isolated(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save_shard_state("a", np.zeros(3, dtype=np.int64), 1)
        assert store.load_shard_state("b") is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save_shard_state("k", np.zeros(2, dtype=np.int64), 1)
        store.clear_shard_state("k")
        assert store.load_shard_state("k") is None

    def test_corrupt_meta_discards(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save_shard_state("k", np.zeros(4, dtype=np.int64), 2)
        state_dir = store.shard_state_dir("k")
        (state_dir / "meta.json").write_text("{not json")
        assert store.load_shard_state("k") is None
        # The whole checkpoint is gone, not just the bad manifest.
        assert not state_dir.exists()
        assert obs.counter("store.discard", family="external",
                           reason="corrupt_manifest") == 1


# ----------------------------------------------------------------------
# The keep condition: finishes under a memory cap the peel cannot meet
# ----------------------------------------------------------------------

#: Child script: cap the data segment at its own base footprint plus
#: ``HEADROOM`` bytes, then decompose with the requested path.  Prints
#: ``ok``/``mismatch`` against the expected coreness, or ``MemoryError``.
CAPPED_CHILD = """
import resource, sys
import numpy as np
from repro.core import core_decomposition
from repro.external import semi_external_core_numbers
from repro.graph import Graph

mode, edges, expected, headroom = sys.argv[1:]
with open("/proc/self/status") as fh:
    base = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmData:"))
cap = base + int(headroom)
resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
try:
    if mode == "external":
        coreness = semi_external_core_numbers(edges).coreness
    else:
        coreness = core_decomposition(Graph.from_edges(np.load(edges))).coreness
except MemoryError:
    print("MemoryError")
else:
    print("ok" if np.array_equal(coreness, np.load(expected)) else "mismatch")
"""


@pytest.mark.skipif(
    resource is None or not Path("/proc/self/status").exists(),
    reason="needs RLIMIT_DATA and /proc (Linux)",
)
class TestMemoryCap:
    #: Data-segment budget above the child's base footprint.  On a
    #: 200k-vertex, ~1M-edge Chung–Lu graph the semi-external run needs
    #: about 30 MiB of it; loading the edges and building the in-RAM CSR
    #: for the peel needs more than 80 MiB.
    HEADROOM = 60 << 20

    def test_semi_external_fits_where_the_peel_does_not(self, tmp_path):
        g = powerlaw_chung_lu(200_000, avg_degree=10.0, seed=1)
        edges = write_edge_npy(g.edge_array(), tmp_path / "edges.npy")
        expected = tmp_path / "expected.npy"
        np.save(expected, core_decomposition(g, backend="numpy").coreness)
        del g
        env = child_env(REPRO_BACKEND="numpy", OPENBLAS_NUM_THREADS="1")
        outcomes = {}
        for mode in ("external", "peel"):
            proc = subprocess.run(
                [sys.executable, "-c", CAPPED_CHILD, mode, str(edges),
                 str(expected), str(self.HEADROOM)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outcomes[mode] = proc.stdout.strip()
        assert outcomes == {"external": "ok", "peel": "MemoryError"}
