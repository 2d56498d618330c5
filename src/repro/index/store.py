"""Persistent on-disk artifact cache — versioned ``.npy`` bundles.

A *bundle* is one directory holding every persisted artifact of one
``(graph, family, parametrisation, backend)`` combination::

    <root>/<family>-<key>/
        meta.json                     # format version, identity, manifest
        decompose.coreness.npy        # one .npy per array field
        ordering.rank.npy
        ...

The bundle key is a SHA-256 over the graph's content digest
(:meth:`repro.graph.csr.Graph.content_digest`), the family name, the
family's content-based :meth:`~repro.engine.HierarchyFamily.store_token`
and the kernel-backend name — any of those changing routes to a different
bundle, so a stale hit is structurally impossible.  Loads memory-map the
arrays (``np.load(..., mmap_mode="r")``), so a warm
:class:`~repro.index.BestKIndex` start maps artifacts instead of
rebuilding them.

Robustness rules: array and manifest writes are atomic
(temp file + ``os.replace``); any load anomaly — unreadable manifest,
missing field file, dtype/shape mismatch, truncated ``.npy`` — discards
the bundle and reports a miss, forcing a clean rebuild.  A corrupted
cache can cost time, never correctness.

Every anomaly class is *observable*: each discard path increments a
distinct ``store.discard`` counter label (``corrupt_manifest``,
``identity_mismatch``, ``missing_field``, ``corrupt_array``,
``shape_mismatch``, ``hydrate_error``) on :mod:`repro.obs` and emits a
``logging`` warning naming the bundle key, so a poisoned cache is never
indistinguishable from a cold miss.  Clean outcomes count too:
``store.hit``, ``store.miss`` and ``store.persist``.

The same dump/load codec (:func:`dump_artifact` / :func:`hydrate_arrays`)
also carries artifacts from pool workers back to the parent index, which
is what keeps the parallel path bit-identical to the serial one.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..core.decomposition import CoreDecomposition
from ..core.forest import CoreForest
from ..core.ordering import OrderedGraph
from ..dynamic.versioned import (
    VersionedGraph, edge_set_hash, edge_set_token, stamp_epoch_digest,
)
from ..engine.family import HierarchyFamily
from ..engine.levels import LevelOrdering
from ..errors import GraphIntegrityError
from ..graph.csr import Graph
from ..graph.validate import validate_graph

__all__ = [
    "ArtifactStore",
    "BundleInfo",
    "FORMAT_VERSION",
    "dump_artifact",
    "hydrate_arrays",
    "persisted_names",
    "resolve_store",
]

#: Version 2: forest nodes are numbered canonically (descending k, then
#: smallest shell vertex), which node ids and their tie-breaks depend on.
#: Version 3: epoch snapshots are stamped over the edge-set token
#: (:func:`~repro.dynamic.versioned.edge_set_token`) instead of the
#: whole-CSR SHA-256, which changes every epoch's bundle key.
FORMAT_VERSION = 3

logger = logging.getLogger(__name__)


class _BundleAnomaly(Exception):
    """Internal: one classified reason a bundle must be discarded."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason if not detail else f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail

_ORDERING_FIELDS = (
    "levels", "rank", "indptr", "indices", "same", "plus", "high",
    "order", "level_start",
)
_ORDER_FIELDS = ("rank", "indptr", "indices", "same", "plus", "high")
_FOREST_FIELDS = ("k", "parent", "vert_ptr", "vertices")

#: Artifact names persisted for a non-core family with / without triangle
#: support.  ``levels`` and ``totals`` are O(n) recomputations from the
#: decomposition — cheaper to rebuild than to map.
_GENERIC_PERSISTED = ("decompose", "ordering", "level_totals")
_TRIANGLE_PERSISTED = ("triangles", "level_triangles")
#: The core family persists its Problem 2 artifacts too; ``core:ordering``
#: is deliberately absent — it is a zero-copy view of ``core:order``
#: (:func:`repro.core.family.core_level_view`) and would double the bytes.
_CORE_PERSISTED = (
    "decompose", "order", "forest", "level_totals",
    "triangles", "level_triangles", "node_totals", "node_triangles",
)


def persisted_names(fam: HierarchyFamily) -> tuple[str, ...]:
    """Artifact names of ``fam`` eligible for the disk store."""
    if not fam.supports_store:
        return ()
    if fam.name == "core":
        return _CORE_PERSISTED
    if fam.supports_triangles:
        return _GENERIC_PERSISTED + _TRIANGLE_PERSISTED
    return _GENERIC_PERSISTED


# ----------------------------------------------------------------------
# Artifact <-> arrays codec
# ----------------------------------------------------------------------

def dump_artifact(fam: HierarchyFamily, name: str, value) -> dict[str, np.ndarray] | None:
    """Flatten one index artifact into named arrays, or ``None`` to skip."""
    if name == "decompose":
        return fam.dump_decomposition(value)
    if name == "ordering":
        return {field: getattr(value, field) for field in _ORDERING_FIELDS}
    if name == "order":
        return {field: getattr(value, field) for field in _ORDER_FIELDS}
    if name == "forest":
        return {field: getattr(value, field) for field in _FOREST_FIELDS}
    if name == "level_totals":
        num_k, twice_in_k, out_k = value
        return {"num_k": num_k, "twice_in_k": twice_in_k, "out_k": out_k}
    if name == "triangles":
        return {"charges": value}
    if name == "level_triangles":
        tri_k, trip_k = value
        return {"tri_k": tri_k, "trip_k": trip_k}
    if name == "node_totals":
        twice_in, out, num = value
        return {"twice_in": twice_in, "out": out, "num": num}
    if name == "node_triangles":
        tri, trip = value
        return {"tri": tri, "trip": trip}
    return None


def _load_artifact(graph, fam, name, fields, *, decomposition, params):
    if name == "decompose":
        return fam.load_decomposition(graph, fields, **params)
    if name == "ordering":
        return LevelOrdering(
            graph=graph, **{f: np.asarray(fields[f]) for f in _ORDERING_FIELDS}
        )
    if name == "order":
        return OrderedGraph(
            graph=graph,
            decomposition=decomposition,
            **{f: np.asarray(fields[f]) for f in _ORDER_FIELDS},
        )
    if name == "forest":
        return CoreForest(*(fields[f] for f in _FOREST_FIELDS), graph.num_vertices)
    if name == "level_totals":
        return tuple(np.asarray(fields[f]) for f in ("num_k", "twice_in_k", "out_k"))
    if name == "triangles":
        return np.asarray(fields["charges"])
    if name == "level_triangles":
        return tuple(np.asarray(fields[f]) for f in ("tri_k", "trip_k"))
    if name == "node_totals":
        return tuple(np.asarray(fields[f]) for f in ("twice_in", "out", "num"))
    if name == "node_triangles":
        return tuple(np.asarray(fields[f]) for f in ("tri", "trip"))
    raise KeyError(name)


def hydrate_arrays(
    graph: Graph,
    fam: HierarchyFamily,
    arrays_by_name: dict[str, dict[str, np.ndarray]],
    params: dict,
) -> dict[str, object]:
    """Reconstruct index artifacts from their array form, in dependency order.

    Shared by the disk-bundle loader and the pool-worker result path.
    Artifacts whose prerequisites are missing (an ``order`` without its
    ``decompose``) are skipped rather than failing the whole set.
    """
    out: dict[str, object] = {}
    decomposition = None
    ordered = sorted(arrays_by_name, key=lambda n: (n != "decompose", n != "order"))
    for name in ordered:
        if name == "order" and decomposition is None:
            continue
        value = _load_artifact(
            graph, fam, name, arrays_by_name[name],
            decomposition=decomposition, params=params,
        )
        if name == "decompose":
            decomposition = value
        out[name] = value
    return out


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BundleInfo:
    """One bundle directory as listed by :meth:`ArtifactStore.bundles`."""

    key: str
    family: str
    num_vertices: int
    num_edges: int
    backend: str
    artifacts: tuple[str, ...]
    nbytes: int
    path: Path


class ArtifactStore:
    """Content-addressed bundle store rooted at one directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys -----------------------------------------------------------
    def bundle_key(
        self, graph: Graph, fam: HierarchyFamily, params: dict, backend_name: str
    ) -> str:
        token = fam.store_token(**params)
        ident = "|".join((
            f"v{FORMAT_VERSION}",
            graph.content_digest(),
            fam.name,
            "" if token is None else str(token),
            backend_name,
        ))
        digest = hashlib.sha256(ident.encode()).hexdigest()
        return f"{fam.name}-{digest[:20]}"

    def bundle_dir(
        self, graph: Graph, fam: HierarchyFamily, params: dict, backend_name: str
    ) -> Path:
        return self.root / self.bundle_key(graph, fam, params, backend_name)

    # -- write ----------------------------------------------------------
    def save_artifact(
        self,
        graph: Graph,
        fam: HierarchyFamily,
        params: dict,
        backend_name: str,
        name: str,
        value,
    ) -> bool:
        """Persist one artifact into its bundle; returns whether written.

        Field files already present are kept (identical content by
        construction — the key pins graph, token and backend); the manifest
        is re-merged so concurrent writers converge.
        """
        if name not in persisted_names(fam):
            return False
        payload = dump_artifact(fam, name, value)
        if payload is None:
            return False
        bundle = self.bundle_dir(graph, fam, params, backend_name)
        bundle.mkdir(parents=True, exist_ok=True)
        spec: dict[str, dict] = {}
        for field, arr in payload.items():
            arr = np.asarray(arr)
            filename = f"{name}.{field}.npy"
            spec[field] = {
                "file": filename,
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
            }
            path = bundle / filename
            if not path.exists():
                _atomic_save_array(path, arr)
        meta = self._read_meta(bundle) or {
            "format": FORMAT_VERSION,
            "family": fam.name,
            "backend": backend_name,
            "graph": {
                "digest": graph.content_digest(),
                "n": graph.num_vertices,
                "m": graph.num_edges,
            },
            "token": fam.store_token(**params),
            "artifacts": {},
        }
        meta["artifacts"][name] = spec
        _atomic_write_text(bundle / "meta.json", json.dumps(meta, indent=1, sort_keys=True))
        obs.add("store.persist", family=fam.name, artifact=name)
        return True

    # -- read -----------------------------------------------------------
    def load_bundle(
        self, graph: Graph, fam: HierarchyFamily, params: dict, backend_name: str
    ) -> dict[str, object] | None:
        """All reconstructable artifacts of a bundle, or ``None`` on miss.

        Any anomaly (corrupt manifest, missing/truncated/mis-shaped array
        file) discards the bundle and returns ``None`` — but never
        silently: the discard is classified, counted on :mod:`repro.obs`
        (``store.discard`` with a ``reason`` label) and logged as a
        warning carrying the bundle key.  A clean absence counts as
        ``store.miss``; a successful load as ``store.hit``.
        """
        bundle = self.bundle_dir(graph, fam, params, backend_name)
        if not (bundle / "meta.json").exists():
            obs.add("store.miss", family=fam.name)
            return None
        try:
            try:
                meta = self._read_meta(bundle, strict=True)
            except Exception as exc:
                raise _BundleAnomaly("corrupt_manifest", str(exc)) from exc
            if (
                meta.get("format") != FORMAT_VERSION
                or meta.get("family") != fam.name
                or meta.get("graph", {}).get("digest") != graph.content_digest()
            ):
                raise _BundleAnomaly("identity_mismatch")
            arrays_by_name: dict[str, dict[str, np.ndarray]] = {}
            for name, spec in meta.get("artifacts", {}).items():
                fields = {}
                for field, fspec in spec.items():
                    try:
                        arr = _load_array(bundle / fspec["file"])
                    except FileNotFoundError as exc:
                        raise _BundleAnomaly("missing_field", fspec["file"]) from exc
                    except Exception as exc:
                        raise _BundleAnomaly("corrupt_array", fspec["file"]) from exc
                    if (
                        str(arr.dtype) != fspec["dtype"]
                        or list(arr.shape) != fspec["shape"]
                    ):
                        raise _BundleAnomaly("shape_mismatch", fspec["file"])
                    fields[field] = arr
                arrays_by_name[name] = fields
            try:
                loaded = hydrate_arrays(graph, fam, arrays_by_name, params)
            except Exception as exc:
                raise _BundleAnomaly("hydrate_error", str(exc)) from exc
        except _BundleAnomaly as anomaly:
            return self._discard_anomalous(bundle, fam, anomaly)
        except Exception as exc:  # malformed manifest structure and the like
            return self._discard_anomalous(
                bundle, fam, _BundleAnomaly("corrupt_manifest", str(exc))
            )
        obs.add("store.hit", family=fam.name)
        return loaded

    def _discard_anomalous(
        self, bundle: Path, fam: HierarchyFamily, anomaly: _BundleAnomaly
    ) -> None:
        """Count, warn about and remove one anomalous bundle."""
        obs.add("store.discard", family=fam.name, reason=anomaly.reason)
        detail = f" ({anomaly.detail})" if anomaly.detail else ""
        logger.warning(
            "discarding artifact bundle %s: %s%s; it will be rebuilt from scratch",
            bundle.name, anomaly.reason, detail,
        )
        self._discard(bundle)
        return None

    # -- shard state (sharded fixpoint checkpoints) ---------------------
    def shard_state_dir(self, key: str) -> Path:
        """Directory holding one sharded-fixpoint checkpoint set.

        ``key`` is any caller-chosen identity string (the sharded engine
        uses the edge-source identity plus the shard count); it is hashed
        so arbitrary strings are filesystem-safe.
        """
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.root / f"shardstate-{digest[:20]}"

    def save_shard_state(
        self, key: str, shard: int, estimate: np.ndarray, round_: int
    ) -> None:
        """Persist one shard's fixpoint state (estimate slice + round).

        Written atomically, array before manifest, so a crash mid-save
        leaves either the previous round's state or a manifest/array pair
        that :meth:`load_shard_state` rejects — never a silent mix.
        """
        state = self.shard_state_dir(key)
        state.mkdir(parents=True, exist_ok=True)
        arr = np.ascontiguousarray(estimate, dtype=np.int64)
        _atomic_save_array(state / f"shard{shard:04d}.estimate.npy", arr)
        meta = {"key": key, "shard": shard, "round": int(round_), "length": len(arr)}
        _atomic_write_text(
            state / f"shard{shard:04d}.meta.json", json.dumps(meta, sort_keys=True)
        )
        obs.add("store.persist", family="sharded", artifact="shard_state")

    def load_shard_state(
        self, key: str, shard: int
    ) -> tuple[np.ndarray, int] | None:
        """One shard's checkpoint as ``(estimate, round)``, or ``None``.

        Follows the bundle anomaly rules: any inconsistency (key mismatch,
        corrupt or mis-sized array) discards the whole shard-state
        directory — a resumed fixpoint must never start from a half-valid
        checkpoint set.  Estimates are monotone upper bounds, so resuming
        from a *consistent* older round only costs extra rounds, never
        correctness.
        """
        state = self.shard_state_dir(key)
        meta_path = state / f"shard{shard:04d}.meta.json"
        if not meta_path.exists():
            obs.add("store.miss", family="sharded")
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if meta.get("key") != key or meta.get("shard") != shard:
                raise _BundleAnomaly("identity_mismatch")
            arr = _load_array(state / f"shard{shard:04d}.estimate.npy")
            if arr.dtype != np.int64 or arr.ndim != 1 or len(arr) != meta.get("length"):
                raise _BundleAnomaly("shape_mismatch")
            round_ = int(meta["round"])
        except _BundleAnomaly as anomaly:
            obs.add("store.discard", family="sharded", reason=anomaly.reason)
            logger.warning(
                "discarding shard state %s: %s; the fixpoint restarts from degrees",
                state.name, anomaly.reason,
            )
            self._discard(state)
            return None
        except Exception as exc:
            obs.add("store.discard", family="sharded", reason="corrupt_manifest")
            logger.warning(
                "discarding shard state %s: %s; the fixpoint restarts from degrees",
                state.name, exc,
            )
            self._discard(state)
            return None
        obs.add("store.hit", family="sharded")
        return np.asarray(arr, dtype=np.int64), round_

    def clear_shard_state(self, key: str) -> None:
        """Remove one checkpoint set (after a converged run)."""
        self._discard(self.shard_state_dir(key))

    # -- epoch snapshots (repro.dynamic lineages) -----------------------
    def epochs_dir(self, lineage: str) -> Path:
        """Directory grouping every epoch record of one graph lineage."""
        return self.root / f"epochs-{lineage[:20]}"

    def save_epoch(self, versioned: VersionedGraph) -> Path:
        """Persist one epoch's CSR snapshot so warm restarts can resume it.

        Records the snapshot arrays atomically plus a manifest carrying
        the lineage, epoch number, stamped digest and delta sizes.  A
        record is self-verifying: :meth:`load_latest_epoch` validates the
        arrays as a canonical CSR, recomputes the edge-set token and the
        stamped digest from them, and discards any record whose manifest
        disagrees.
        """
        d = self.epochs_dir(versioned.lineage) / f"epoch-{versioned.epoch:06d}"
        d.mkdir(parents=True, exist_ok=True)
        g = versioned.graph
        _atomic_save_array(d / "indptr.npy", g.indptr)
        _atomic_save_array(d / "indices.npy", g.indices)
        applied = versioned.applied
        meta = {
            "format": FORMAT_VERSION,
            "lineage": versioned.lineage,
            "epoch": versioned.epoch,
            "digest": versioned.digest,
            "parent": versioned.parent_digest,
            "n": g.num_vertices,
            "m": g.num_edges,
            "inserted": 0 if applied is None else len(applied.insert),
            "deleted": 0 if applied is None else len(applied.delete),
        }
        _atomic_write_text(d / "meta.json", json.dumps(meta, indent=1, sort_keys=True))
        obs.add("store.persist", family="dynamic", artifact="epoch")
        return d

    def epoch_records(self, lineage: str) -> list[dict]:
        """Readable epoch manifests of one lineage, oldest first.

        Unreadable records and records of a different lineage (a prefix
        collision) are skipped, not discarded — listing must be safe to
        call concurrently with a writer.
        """
        root = self.epochs_dir(lineage)
        if not root.exists():
            return []
        out = []
        for path in sorted(p for p in root.iterdir() if p.is_dir()):
            meta = self._read_meta(path)
            if meta is None or meta.get("lineage") != lineage:
                continue
            meta["path"] = path
            out.append(meta)
        out.sort(key=lambda m: m.get("epoch", -1))
        return out

    def load_latest_epoch(self, lineage: str) -> VersionedGraph | None:
        """Newest verifiable epoch snapshot of a lineage, or ``None``.

        Walks records newest-first; each candidate's arrays are loaded,
        checked to be a canonical CSR (sorted rows, no loops, symmetric —
        the one layout a given edge set has), and the stamped digest
        recomputed from their edge-set token — a mismatch (truncated
        array, tampered manifest or arrays, format drift) discards that
        record and falls back to the next-newest, so a corrupted tail
        costs epochs, never consistency.  Epoch 0 is never recorded (the caller already holds
        the base graph), so a ``None`` simply means "start from epoch 0".
        """
        for meta in reversed(self.epoch_records(lineage)):
            path = meta["path"]
            try:
                if meta.get("format") != FORMAT_VERSION:
                    raise _BundleAnomaly("identity_mismatch", "format")
                indptr = np.asarray(_load_array(path / "indptr.npy"))
                indices = np.asarray(_load_array(path / "indices.npy"))
                graph = Graph.from_arrays(indptr, indices)
                try:
                    validate_graph(graph)
                except GraphIntegrityError as exc:
                    raise _BundleAnomaly("corrupt_array", str(exc)) from exc
                epoch = int(meta["epoch"])
                edge_hash = edge_set_hash(graph.edge_array())
                token = edge_set_token(graph.num_vertices, edge_hash)
                if meta.get("digest") != stamp_epoch_digest(lineage, epoch, token):
                    raise _BundleAnomaly("identity_mismatch", "digest")
            except _BundleAnomaly as anomaly:
                obs.add("store.discard", family="dynamic", reason=anomaly.reason)
                logger.warning(
                    "discarding epoch record %s: %s; falling back to an older epoch",
                    path.name, anomaly,
                )
                self._discard(path)
                continue
            except Exception as exc:
                obs.add("store.discard", family="dynamic", reason="corrupt_array")
                logger.warning(
                    "discarding epoch record %s: %s; falling back to an older epoch",
                    path.name, exc,
                )
                self._discard(path)
                continue
            stamped = Graph.from_arrays(
                graph.indptr, graph.indices, False, digest=meta["digest"]
            )
            obs.add("store.hit", family="dynamic")
            return VersionedGraph(
                stamped, epoch=epoch, lineage=lineage,
                parent_digest=meta.get("parent"), edge_hash=edge_hash,
            )
        obs.add("store.miss", family="dynamic")
        return None

    # -- maintenance ----------------------------------------------------
    def bundles(self) -> list[BundleInfo]:
        """Readable bundles under the root, sorted by key."""
        out = []
        for path in sorted(p for p in self.root.iterdir() if p.is_dir()):
            meta = self._read_meta(path)
            if meta is None:
                continue
            nbytes = sum(f.stat().st_size for f in path.iterdir() if f.is_file())
            out.append(BundleInfo(
                key=path.name,
                family=meta.get("family", "?"),
                num_vertices=meta.get("graph", {}).get("n", -1),
                num_edges=meta.get("graph", {}).get("m", -1),
                backend=meta.get("backend", "?"),
                artifacts=tuple(sorted(meta.get("artifacts", {}))),
                nbytes=nbytes,
                path=path,
            ))
        return out

    def clear(self) -> int:
        """Delete every bundle directory; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.iterdir():
            if path.is_dir():
                self._discard(path)
                removed += 1
        return removed

    # -- internals ------------------------------------------------------
    @staticmethod
    def _read_meta(bundle: Path, strict: bool = False) -> dict | None:
        try:
            return json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
        except Exception:
            if strict:
                raise
            return None

    @staticmethod
    def _discard(bundle: Path) -> None:
        shutil.rmtree(bundle, ignore_errors=True)

    def __repr__(self) -> str:
        return f"ArtifactStore(root={str(self.root)!r})"


def resolve_store(store) -> ArtifactStore | None:
    """Normalise the ``store=`` parameter of :class:`~repro.index.BestKIndex`.

    ``None`` consults the ``REPRO_CACHE_DIR`` environment variable (unset
    or empty means no store); ``False`` disables the store outright; a
    path creates an :class:`ArtifactStore`; an instance passes through.
    """
    if store is False:
        return None
    if store is None:
        env = os.environ.get("REPRO_CACHE_DIR", "").strip()
        return ArtifactStore(env) if env else None
    if isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


def _atomic_save_array(path: Path, arr: np.ndarray) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.ascontiguousarray(arr))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_array(path: Path) -> np.ndarray:
    try:
        arr = np.load(path, mmap_mode="r", allow_pickle=False)
    except ValueError:
        # Zero-size arrays cannot be memory-mapped; load them eagerly
        # (headers-only).  A genuinely corrupt file raises here too and
        # propagates to the bundle loader, which discards the bundle.
        arr = np.load(path, allow_pickle=False)
    if not isinstance(arr, np.memmap):
        arr.setflags(write=False)
    return arr
