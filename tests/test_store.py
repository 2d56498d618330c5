"""Tests for :mod:`repro.index.store` — the persistent artifact cache.

Three pillars:

* **Warm-start identity** — a second index over the same cache answers
  every query bit-identically *without running the builders* (counted via
  monkeypatched builders, same technique as ``test_index.py``).
* **Invalidation** — anything that could change an answer routes to a
  different bundle (weight contents, family params, format version), and
  what cannot (the kernel backend) shares one and anything that could corrupt one (truncated or
  over-long artifact file, mangled manifest, missing file, a format 4
  bundle) is discarded with its typed reason and rebuilt.  A cache can
  cost time, never correctness.
* **Plumbing** — ``resolve_store`` / ``REPRO_CACHE_DIR`` semantics and
  the ``bestk cache {ls,clear,prune,warm}`` CLI.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.core.decomposition as decomposition_module
import repro.core.family as core_family
import repro.engine.chain as chain
from repro import BestKIndex, obs
from repro.core import PAPER_METRICS, core_decomposition
from repro.engine import get_family
from repro.graph import Graph
from repro.index import ArtifactStore, resolve_store
from repro.index.store import FORMAT_VERSION, dump_artifact, persisted_names

from conftest import random_graph


@pytest.fixture(scope="module")
def graph() -> Graph:
    return random_graph(130, 650, seed=31)


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


def _count_calls(monkeypatch, name: str, module=chain) -> list:
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _answer(r) -> tuple:
    return (r.k, r.score.hex(), r.node_id, r.vertices.tolist())


def _answers(index: BestKIndex) -> dict:
    out = {}
    for metric, r in index.best_set_all_metrics(PAPER_METRICS).items():
        out[("set", metric)] = _answer(r)
    for metric, r in index.best_core_all_metrics(PAPER_METRICS).items():
        out[("core", metric)] = _answer(r)
    return out


def _family_params(family: str, graph: Graph) -> dict:
    if family == "weighted":
        return {"edge_weights": np.random.default_rng(9).lognormal(size=graph.num_edges)}
    return {}


def _family_answers(index: BestKIndex, family: str, params: dict) -> dict:
    """Problem 1 and Problem 2 for every batch metric of one family."""
    out = {}
    for metric in get_family(family).batch_metrics:
        out[("level", metric)] = _answer(index.best_level(family, metric, **params))
        out[("node", metric)] = _answer(index.best_node(family, metric, **params))
    return out


class TestWarmStart:
    def test_warm_index_is_bit_identical_and_build_free(
        self, graph, store, monkeypatch
    ):
        plain = BestKIndex(graph, jobs=1, store=False)
        expected = _answers(plain)

        cold = BestKIndex(graph, jobs=1, store=store)
        assert _answers(cold) == expected
        assert cold.total_build_seconds() > 0.0

        counters = {
            name: _count_calls(monkeypatch, name, module)
            for module, name in (
                (core_family, "order_vertices"), (chain, "shell_sweep"),
                (chain, "triangles_by_min_rank_vertex"), (chain, "triplet_charges"),
            )
        }
        warm = BestKIndex(graph, jobs=1, store=store)
        assert _answers(warm) == expected
        for name, calls in counters.items():
            assert calls == [], f"{name} ran on a warm cache"
        assert warm.hydrate_seconds > 0.0
        # Hydrated artifacts keep the built == timed invariant at zero cost.
        assert set(warm.build_seconds) == set(warm.built_artifacts())

    def test_hydrated_decomposition_equals_a_cold_one(self, graph, store):
        BestKIndex(graph, jobs=1, store=store).best_set("average_degree")
        warm = BestKIndex(graph, jobs=1, store=store)
        hydrated = warm.artifact("core", "decompose")
        assert warm.build_seconds["core:decompose"] == 0.0  # really hydrated
        cold = core_decomposition(graph)
        assert hydrated.kmax == cold.kmax
        assert np.array_equal(hydrated.shell_start, cold.shell_start)
        assert np.array_equal(hydrated.order, cold.order)
        assert not hydrated.order.flags.writeable

    def test_warm_restart_never_sorts_the_vertex_order(self, graph, store, monkeypatch):
        # The 12 paper queries: both problems for the six paper metrics.
        def twelve(index):
            return [
                _answer(query("core", m))
                for m in PAPER_METRICS for query in (index.best_level, index.best_node)
            ]

        calls = _count_calls(monkeypatch, "_coreness_order", decomposition_module)
        expected = twelve(BestKIndex(graph, jobs=1, store=store))
        assert calls, "the cold build sorts the order once"
        calls.clear()
        restarted = Graph(np.array(graph.indptr), np.array(graph.indices))
        assert twelve(BestKIndex(restarted, jobs=1, store=store)) == expected
        assert calls == []

    def test_warm_scores_arrays_equal(self, graph, store):
        cold = BestKIndex(graph, jobs=1, store=store)
        cold_scores = {m: cold.set_scores(m).scores for m in PAPER_METRICS}
        warm = BestKIndex(graph, jobs=1, store=store)
        for m in PAPER_METRICS:
            assert np.array_equal(
                cold_scores[m], warm.set_scores(m).scores, equal_nan=True
            )

    @pytest.mark.parametrize("family", ["core", "truss", "weighted", "ecc"])
    def test_hydrated_artifacts_are_byte_identical(self, graph, store, family):
        fam = get_family(family)
        params = _family_params(family, graph)
        cold = BestKIndex(graph, jobs=1, store=False)
        expected = _family_answers(cold, family, params)
        assert _family_answers(BestKIndex(graph, jobs=1, store=store), family, params) == expected
        warm = BestKIndex(graph, jobs=1, store=store)
        assert _family_answers(warm, family, params) == expected
        names = persisted_names(fam)
        assert all(warm.build_seconds[f"{family}:{name}"] == 0.0 for name in names)
        dtypes = set()
        for name in names:
            want = dump_artifact(fam, name, cold.artifact(family, name, **params))
            got = dump_artifact(fam, name, warm.artifact(family, name, **params))
            assert list(got) == list(want)
            for field, arr in want.items():
                assert got[field].dtype == arr.dtype and got[field].shape == arr.shape
                assert np.asarray(got[field]).tobytes() == np.asarray(arr).tobytes()
                dtypes.add(arr.dtype)
        if family == "weighted":
            assert np.dtype(np.float64) in dtypes
        # ``bestk cache ls`` reads these: artifact names and bytes on disk.
        (info,) = store.bundles()
        assert info.family == family
        assert info.artifacts == tuple(sorted(names))
        files = sorted(p.name for p in info.path.iterdir())
        assert files == sorted(["meta.json", *(f"{name}.bin" for name in names)])
        assert info.nbytes == sum((info.path / f).stat().st_size for f in files)
        meta = json.loads((info.path / "meta.json").read_text())
        assert all(
            fspec["offset"] % 64 == 0
            for spec in meta["artifacts"].values() for fspec in spec.values()
        )

    def test_hydrated_arrays_are_read_only(self, graph, store):
        cold = BestKIndex(graph, jobs=1, store=store)
        cold.best_set("average_degree")
        cold.best_core("average_degree")
        warm = BestKIndex(graph, jobs=1, store=store)
        coreness = warm.artifact("core", "decompose").coreness
        assert warm.build_seconds["core:decompose"] == 0.0
        with pytest.raises(ValueError):
            coreness[0] = 1
        # The raw field views themselves, not just flags an artifact sets.
        loaded = store.load_bundle(graph, get_family("core"), {})
        for arr in (*loaded["level_totals"], *loaded["node_totals"]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_parallel_prebuild_populates_the_store(self, graph, store):
        par = BestKIndex(graph, jobs=2, store=store)
        par.prebuild(("core",), problem2=True)
        keys = {b.family for b in store.bundles()}
        assert "core" in keys
        warm = BestKIndex(graph, jobs=1, store=store)
        assert warm.best_set("average_degree").k == par.best_set("average_degree").k


class TestInvalidation:
    def test_different_graphs_use_different_bundles(self, store):
        fam = get_family("core")
        a = random_graph(40, 120, seed=1)
        b = random_graph(40, 120, seed=2)
        assert store.bundle_key(a, fam, {}) != store.bundle_key(b, fam, {})

    def test_one_bundle_serves_every_backend(self, graph, store, monkeypatch):
        # Artifacts are bit-identical across backends, so a store primed
        # under numpy restarts under native and python with no build.
        fam = get_family("core")
        primed = BestKIndex(graph, jobs=1, store=store, backend="numpy")
        expected = _answers(primed)
        fields = {
            name: dump_artifact(fam, name, primed.artifact("core", name))
            for name in persisted_names(fam)
        }
        counters = {
            name: _count_calls(monkeypatch, name, module)
            for module, name in (
                (core_family, "order_vertices"), (chain, "shell_sweep"),
                (chain, "triangles_by_min_rank_vertex"), (chain, "triplet_charges"),
            )
        }
        for backend in ("native", "python"):
            warm = BestKIndex(graph, jobs=1, store=store, backend=backend)
            assert _answers(warm) == expected
            for name, calls in counters.items():
                assert calls == [], f"{name} ran on a {backend} restart"
            for name, want in fields.items():
                assert warm.build_seconds[f"core:{name}"] == 0.0
                got = dump_artifact(fam, name, warm.artifact("core", name))
                assert list(got) == list(want)
                for field, arr in want.items():
                    assert got[field].dtype == arr.dtype
                    assert np.asarray(got[field]).tobytes() == np.asarray(arr).tobytes()
        (info,) = store.bundles()
        assert info.backend == "numpy"  # the writer, recorded for information

    def test_weighted_key_tracks_contents_not_identity(self, graph, store):
        fam = get_family("weighted")
        w = np.random.default_rng(9).lognormal(size=graph.num_edges)
        same = store.bundle_key(graph, fam, {"edge_weights": w.copy()})
        assert store.bundle_key(graph, fam, {"edge_weights": w}) == same
        mutated = w.copy()
        mutated[0] += 1.0
        assert store.bundle_key(graph, fam, {"edge_weights": mutated}) != same

    def test_mutated_weights_rebuild_not_stale(self, graph, store):
        w1 = np.random.default_rng(9).lognormal(size=graph.num_edges)
        w2 = w1.copy()
        w2[: graph.num_edges // 2] *= 3.0
        index1 = BestKIndex(graph, jobs=1, store=store)
        r1 = index1.best_level("weighted", "weighted_average_degree", edge_weights=w1)
        index2 = BestKIndex(graph, jobs=1, store=store)
        r2 = index2.best_level("weighted", "weighted_average_degree", edge_weights=w2)
        plain = BestKIndex(graph, jobs=1, store=False)
        f2 = plain.best_level("weighted", "weighted_average_degree", edge_weights=w2)
        assert (r2.k, r2.score) == (f2.k, f2.score)
        # Both parametrisations coexist as separate bundles; replaying the
        # first from a third process still hits and still matches.
        index3 = BestKIndex(graph, jobs=1, store=store)
        r1b = index3.best_level("weighted", "weighted_average_degree", edge_weights=w1)
        assert (r1b.k, r1b.score) == (r1.k, r1.score)

    def test_ecc_max_k_params_separate_bundles(self, store):
        g = random_graph(30, 80, seed=4)
        fam = get_family("ecc")
        assert store.bundle_key(g, fam, {"max_k": 2}) != store.bundle_key(
            g, fam, {"max_k": None}
        )
        cold = BestKIndex(g, jobs=1, store=store)
        r_cold = cold.best_level("ecc", "average_degree", max_k=2)
        warm = BestKIndex(g, jobs=1, store=store)
        r_warm = warm.best_level("ecc", "average_degree", max_k=2)
        plain = BestKIndex(g, jobs=1, store=False)
        r_plain = plain.best_level("ecc", "average_degree", max_k=2)
        assert (r_cold.k, r_cold.score) == (r_warm.k, r_warm.score) == (r_plain.k, r_plain.score)

    def test_weighted_token_hashes_the_weight_bytes(self, graph):
        fam = get_family("weighted")
        w = np.random.default_rng(9).lognormal(size=graph.num_edges)
        token = fam.store_token(edge_weights=w, num_levels=16)
        assert token == f"w={hashlib.sha256(w.tobytes()).hexdigest()}:L=16"
        # A strided input hashes its contiguous copy: the same bytes.
        assert fam.store_token(edge_weights=np.repeat(w, 2)[::2], num_levels=16) == token

    def test_format_version_mismatch_discards(self, graph, store):
        fam = get_family("core")
        index = BestKIndex(graph, jobs=1, store=store)
        index.best_set("average_degree")
        bundle = store.bundle_dir(graph, fam, {})
        meta = json.loads((bundle / "meta.json").read_text())
        meta["format"] = 999
        (bundle / "meta.json").write_text(json.dumps(meta))
        assert store.load_bundle(graph, fam, {}) is None
        assert not bundle.exists()  # discarded, not left to rot


class TestCorruption:
    """Every corruption lands as a miss + clean rebuild, never a wrong answer."""

    def _seed(self, graph, store) -> dict:
        index = BestKIndex(graph, jobs=1, store=store)
        return _answers(index)

    def _assert_rebuilds(self, graph, store, expected, reason) -> None:
        """One discard typed ``reason``, then the same answers, rebuilt."""
        obs.reset()
        index = BestKIndex(graph, jobs=1, store=store)
        assert _answers(index) == expected
        assert index.build_seconds["core:decompose"] > 0.0  # it really rebuilt
        assert obs.counter("store.discard", family="core", reason=reason) == 1
        assert obs.counter_total("store.discard") == 1

    def test_corrupt_manifest(self, graph, store):
        expected = self._seed(graph, store)
        bundle = store.bundles()[0].path
        (bundle / "meta.json").write_text("{not json")
        self._assert_rebuilds(graph, store, expected, "corrupt_manifest")

    def test_truncated_array_file(self, graph, store):
        expected = self._seed(graph, store)
        bundle = store.bundles()[0].path
        target = sorted(bundle.glob("*.bin"))[0]
        target.write_bytes(target.read_bytes()[: 40])
        self._assert_rebuilds(graph, store, expected, "corrupt_array")

    def test_missing_array_file(self, graph, store):
        expected = self._seed(graph, store)
        bundle = store.bundles()[0].path
        sorted(bundle.glob("*.bin"))[0].unlink()
        self._assert_rebuilds(graph, store, expected, "missing_field")

    def test_shape_mismatch(self, graph, store):
        expected = self._seed(graph, store)
        bundle = store.bundles()[0].path
        target = sorted(bundle.glob("*.bin"))[0]
        # Three stray int64 values after the last declared field.
        target.write_bytes(target.read_bytes() + np.arange(3, dtype=np.int64).tobytes())
        self._assert_rebuilds(graph, store, expected, "shape_mismatch")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda fspec, size: fspec.update(offset=size + 64), "corrupt_array"),
            (lambda fspec, size: fspec.update(nbytes=fspec["nbytes"] + 8), "shape_mismatch"),
            (lambda fspec, size: fspec.update(offset=-64), "corrupt_manifest"),
        ],
        ids=["offset_past_end", "nbytes_not_dtype_times_shape", "negative_offset"],
    )
    def test_field_entry_anomaly(self, graph, store, edit, reason):
        expected = self._seed(graph, store)
        bundle = store.bundles()[0].path
        meta = json.loads((bundle / "meta.json").read_text())
        name = sorted(meta["artifacts"])[0]
        fspec = next(iter(meta["artifacts"][name].values()))
        edit(fspec, (bundle / f"{name}.bin").stat().st_size)
        (bundle / "meta.json").write_text(json.dumps(meta))
        self._assert_rebuilds(graph, store, expected, reason)

    def test_format_4_bundle_is_discarded(self, graph, store):
        # The layout before raw artifact files: one .npy per field and a
        # version 4 manifest naming each file.
        fam = get_family("core")
        cold = BestKIndex(graph, jobs=1, store=False)
        expected = _answers(cold)
        bundle = store.bundle_dir(graph, fam, {})
        bundle.mkdir(parents=True)
        artifacts = {}
        for name in persisted_names(fam):
            spec = {}
            for field, arr in dump_artifact(fam, name, cold.artifact("core", name)).items():
                np.save(bundle / f"{name}.{field}.npy", arr)
                spec[field] = {
                    "file": f"{name}.{field}.npy", "dtype": str(arr.dtype), "shape": list(arr.shape),
                }
            artifacts[name] = spec
        meta = {
            "format": 4, "family": "core", "backend": cold.backend_name,
            "graph": {"digest": graph.content_digest(), "n": graph.num_vertices, "m": graph.num_edges},
            "token": None, "artifacts": artifacts,
        }
        (bundle / "meta.json").write_text(json.dumps(meta))
        self._assert_rebuilds(graph, store, expected, "identity_mismatch")
        assert json.loads((bundle / "meta.json").read_text())["format"] == FORMAT_VERSION
        assert not list(bundle.glob("*.npy"))


class TestPlumbing:
    def test_resolve_store_false_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_store(False) is None

    def test_resolve_store_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        st = resolve_store(None)
        assert isinstance(st, ArtifactStore)
        assert st.root == tmp_path / "c"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_store(None) is None

    def test_resolve_store_passthrough_and_path(self, tmp_path):
        st = ArtifactStore(tmp_path)
        assert resolve_store(st) is st
        assert resolve_store(tmp_path).root == tmp_path

    def test_persisted_names_gating(self):
        # One list for every family: no family has its own artifacts.
        assert persisted_names(get_family("core")) == persisted_names(get_family("truss")) == (
            "decompose", "ordering", "level_totals", "forest", "node_totals",
            "triangles", "level_triangles", "node_triangles",
        )
        assert persisted_names(get_family("weighted")) == (
            "decompose", "ordering", "level_totals", "forest", "node_totals",
        )
        for fam in ("core", "truss", "weighted"):
            names = persisted_names(get_family(fam))
            assert "levels" not in names and "totals" not in names
            assert "triplets" not in names

    def test_save_artifact_skips_ineligible_names(self, graph, store):
        fam = get_family("core")
        index = BestKIndex(graph, jobs=1, store=False)
        assert store.save_artifact(graph, fam, {}, "numpy", "levels", index.artifact(fam, "levels")) is False
        assert store.save_artifact(graph, fam, {}, "numpy", "decompose", index.decomposition) is True

    def test_clear_empties_the_root(self, graph, store):
        BestKIndex(graph, jobs=1, store=store).best_set("average_degree")
        assert store.bundles()
        assert store.clear()["bundles"] >= 1
        assert store.bundles() == []

    def test_shard_states_and_epochs_are_not_bundles(self, graph, store):
        from repro.dynamic import GraphDelta

        store.save_shard_state("edges.txt", np.arange(3), 1)
        assert store.bundles() == []
        index = BestKIndex(graph, jobs=1, store=store)
        index.best_set("average_degree")
        index.apply(GraphDelta.from_edges(insert=[(0, graph.num_vertices - 1)]))
        index.best_set("average_degree")
        bundles = store.bundles()
        assert bundles and all(info.family == "core" for info in bundles)
        assert store.clear() == {
            "bundles": len(bundles), "shard_states": 1, "epoch_lineages": 1,
        }
        assert list(store.root.iterdir()) == []

    def test_prune_removes_exactly_the_stale_entries(self, graph, store):
        from repro.dynamic import GraphDelta

        index = BestKIndex(graph, jobs=1, store=store)
        _answers(index)
        index.apply(GraphDelta.from_edges(insert=[(0, graph.num_vertices - 1)]))
        index.best_set("average_degree")
        current = {p.relative_to(store.root) for p in store.root.rglob("meta.json")}
        assert any(p.parts[0].startswith("epochs-") for p in current)
        # One hand-written format 5 bundle and one format 5 epoch record.
        old_bundle = store.root / "core-0123456789abcdef0123"
        old_bundle.mkdir()
        (old_bundle / "meta.json").write_text(json.dumps({"format": 5, "family": "core"}))
        (old_bundle / "decompose.bin").write_bytes(bytes(64))
        lineage = index.versioned.lineage
        old_epoch = store.epochs_dir(lineage) / "epoch-000009"
        old_epoch.mkdir()
        (old_epoch / "meta.json").write_text(json.dumps({"format": 5, "lineage": lineage}))
        # A shard-state checkpoint carries no format and must survive.
        store.save_shard_state("edges.txt", np.arange(3), 1)
        obs.reset()
        assert store.prune() == 2
        assert not old_bundle.exists() and not old_epoch.exists()
        assert current <= {p.relative_to(store.root) for p in store.root.rglob("meta.json")}
        assert store.load_shard_state("edges.txt")[1] == 1
        assert obs.counter("store.discard", family="core", reason="stale_format") == 1
        assert obs.counter("store.discard", family="dynamic", reason="stale_format") == 1
        assert obs.counter_total("store.discard") == 2
        assert store.prune() == 0

    def test_prune_removes_an_unreadable_manifest(self, graph, store):
        BestKIndex(graph, jobs=1, store=store).best_set("average_degree")
        bundle = store.bundles()[0].path
        (bundle / "meta.json").write_text("{not json")
        assert store.prune() == 1
        assert not bundle.exists()

    def test_empty_graph_round_trip(self, store):
        for empty in (Graph.empty(0), Graph.empty(5)):
            cold = BestKIndex(empty, jobs=1, store=store)
            cold_scores = cold.set_scores("average_degree").scores
            warm = BestKIndex(empty, jobs=1, store=store)
            assert np.array_equal(
                cold_scores, warm.set_scores("average_degree").scores, equal_nan=True
            )


class TestCacheCli:
    @pytest.fixture()
    def edge_file(self, tmp_path):
        g = random_graph(60, 200, seed=12)
        lines = []
        for u in range(g.num_vertices):
            for v in g.neighbors(u):
                if u < v:
                    lines.append(f"{u} {v}")
        path = tmp_path / "graph.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_warm_ls_clear_cycle(self, tmp_path, edge_file, capsys):
        from repro.cli import main

        cache = str(tmp_path / "clicache")
        assert main(["cache", "warm", edge_file, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "warmed core" in out and "warmed truss" in out

        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2 bundle(s)" in out

        assert main(["cache", "prune", "--cache-dir", cache]) == 0
        assert "removed 0 stale" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "removed 2 bundle(s)" in out

        assert main(["cache", "ls", "--cache-dir", cache]) == 0
        assert "0 bundle(s)" in capsys.readouterr().out

    def test_prune_removes_a_format_6_bundle(self, tmp_path, edge_file, capsys):
        from repro.cli import main

        cache = tmp_path / "prunecache"
        assert main(["cache", "warm", edge_file, "--cache-dir", str(cache)]) == 0
        old = cache / "core-0123456789abcdef0123"
        old.mkdir()
        (old / "meta.json").write_text(json.dumps({"format": 6, "family": "core"}))
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(cache)]) == 0
        assert "removed 1 stale" in capsys.readouterr().out
        assert not old.exists()
        assert len(ArtifactStore(cache).bundles()) == 2

    def test_cache_requires_a_directory(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "ls"]) == 1
        assert "no cache directory" in capsys.readouterr().err

    def test_set_command_uses_the_cache(self, tmp_path, edge_file, capsys):
        from repro.cli import main

        cache = str(tmp_path / "setcache")
        assert main(["set", edge_file, "--all-metrics", "--cache-dir", cache]) == 0
        cold_out = capsys.readouterr().out
        assert main(["set", edge_file, "--all-metrics", "--cache-dir", cache]) == 0
        warm_out = capsys.readouterr().out
        # Same answers either way; the warm run reports a (near-)zero build.
        assert cold_out.splitlines()[:6] == warm_out.splitlines()[:6]
        assert ArtifactStore(cache).bundles()
