"""Persistent on-disk artifact cache — versioned raw-array bundles.

A *bundle* is one directory holding every persisted artifact of one
``(graph, family, parametrisation)`` combination::

    <root>/<family>-<key>/
        meta.json          # format version, identity, per-field manifest
        decompose.bin      # one raw file per artifact
        ordering.bin
        ...

An artifact file holds the artifact's array fields back to back, each at
a 64-byte-aligned offset, with no per-field header.  The manifest records
each field's ``dtype`` (``arr.dtype.str``, byte order included),
``shape``, ``offset`` and ``nbytes``; the file ends where its last field
ends.

The bundle key is a SHA-256 over the graph's content digest
(:meth:`repro.graph.csr.Graph.content_digest`), the family name, the
family's content-based :meth:`~repro.engine.HierarchyFamily.store_token`
— any of those changing routes to a different bundle, so a stale hit is
structurally impossible.  The kernel backend is not part of the key:
every backend builds bit-identical artifacts, so a bundle primed under
one serves the others; ``meta.json`` records the writer's backend for
information only.  A load reads
``meta.json`` once and maps each artifact file with one read-only
``mmap``, slicing its fields into ``np.frombuffer`` views (read-only by
construction), so a warm :class:`~repro.index.BestKIndex` start maps
artifacts instead of rebuilding them: eight maps for a core bundle.

Robustness rules: artifact-file and manifest writes are atomic
(temp file + ``os.replace``); any load anomaly discards the bundle and
reports a miss, forcing a clean rebuild.  A corrupted cache can cost
time, never correctness.

Every anomaly class is *observable*: each discard path increments a
distinct ``store.discard`` counter label on :mod:`repro.obs` and emits a
``logging`` warning naming the bundle key, so a poisoned cache is never
indistinguishable from a cold miss:

=====================  ===============================================
``corrupt_manifest``   unreadable ``meta.json``, or a malformed or
                       negative field entry
``identity_mismatch``  another format version, family or graph digest
``missing_field``      an artifact file the manifest names is absent
``corrupt_array``      an artifact file shorter than its last field's
                       ``offset + nbytes`` (an offset past the end)
``shape_mismatch``     an artifact file longer than declared, or an
                       entry whose dtype × shape is not its ``nbytes``
``hydrate_error``      the arrays do not rebuild the artifact
``stale_format``       :meth:`ArtifactStore.prune` only: a bundle or
                       epoch record of another format version
=====================  ===============================================

Clean outcomes count too: ``store.hit``, ``store.miss`` and
``store.persist``.

The same dump/load codec (:func:`dump_artifact` / :func:`hydrate_arrays`)
also carries artifacts from pool workers back to the parent index, which
is what keeps the parallel path bit-identical to the serial one.  Epoch
records and shard state stay ``.npy`` files (:func:`_load_array`).
"""

from __future__ import annotations

import json
import logging
import math
import mmap
import operator
import os
import shutil
import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..dynamic.versioned import (
    VersionedGraph, edge_set_hash, edge_set_token, stamp_epoch_digest,
)
from ..engine.family import HierarchyFamily
from ..engine.forest import LevelForest
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
#: Version 4: the core family persists ``core:ordering`` like every family,
#: in place of its own core-only ordering artifact, so a version 3 core
#: bundle would hydrate no ordering; an ordering's per-vertex arrays are
#: stored as the rows of one array.
#: Version 5: one raw ``<artifact>.bin`` file per artifact, its fields
#: placed by the manifest's ``offset``/``nbytes``, in place of one ``.npy``
#: file per field.
#: Version 6: :meth:`~repro.graph.csr.Graph.content_digest` hashes the CSR
#: as int32 behind a width tag when that is lossless, which changes every
#: bundle key and every lineage an epoch record is filed under.
#: Version 7: the digest hashes ``indices`` as uint16 when ``n <= 2**16``,
#: under its own width tag, which changes those graphs' keys and lineages.
#: Version 8: the kernel-backend name leaves the bundle key (kept in
#: ``meta.json`` as information), so one bundle serves every backend.
FORMAT_VERSION = 8

#: Alignment of every field's offset inside an artifact file.
_ALIGN = 64

#: Directory name prefixes of the root's two non-bundle kinds.
_SHARD_PREFIX = "shardstate-"
_EPOCHS_PREFIX = "epochs-"

logger = logging.getLogger(__name__)


class _BundleAnomaly(Exception):
    """Internal: one classified reason a bundle must be discarded."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason if not detail else f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail

#: The ordering's per-vertex arrays, persisted as the rows of one
#: ``(6, n)`` array: a warm start maps one file for them, not six.  Its
#: ``indptr`` is the graph's own and is not stored.
_ORDERING_ROWS = ("levels", "rank", "same", "plus", "high", "order")
_FOREST_FIELDS = ("k", "parent", "vert_ptr", "vertices")

#: Artifact names persisted for a family with / without triangle support,
#: the same for every family.  ``levels`` and ``totals`` are O(n)
#: recomputations from the decomposition and ``triplets`` an O(m) pass —
#: cheaper to rebuild than to map.
_GENERIC_PERSISTED = ("decompose", "ordering", "level_totals", "forest", "node_totals")
_TRIANGLE_PERSISTED = ("triangles", "level_triangles", "node_triangles")


def persisted_names(fam: HierarchyFamily) -> tuple[str, ...]:
    """Artifact names of ``fam`` eligible for the disk store."""
    if not fam.supports_store:
        return ()
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
        return {
            "rows": np.stack([getattr(value, row) for row in _ORDERING_ROWS]),
            "indices": value.indices,
            "level_start": value.level_start,
        }
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


def _load_artifact(graph, fam, name, fields, params):
    if name == "decompose":
        return fam.load_decomposition(graph, fields, **params)
    if name == "ordering":
        return LevelOrdering(
            graph=graph, indptr=graph.indptr, indices=np.asarray(fields["indices"]),
            level_start=np.asarray(fields["level_start"]),
            **dict(zip(_ORDERING_ROWS, np.asarray(fields["rows"]))),
        )
    if name == "forest":
        return LevelForest(*(fields[f] for f in _FOREST_FIELDS), graph.num_vertices)
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
    """Reconstruct index artifacts from their array form.

    Shared by the disk-bundle loader and the pool-worker result path.
    Each artifact stands alone: none needs another to be rebuilt.
    """
    return {
        name: _load_artifact(graph, fam, name, fields, params)
        for name, fields in arrays_by_name.items()
    }


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
    def bundle_key(self, graph: Graph, fam: HierarchyFamily, params: dict) -> str:
        token = fam.store_token(**params)
        ident = "|".join((
            f"v{FORMAT_VERSION}",
            graph.content_digest(),
            fam.name,
            "" if token is None else str(token),
        ))
        digest = hashlib.sha256(ident.encode()).hexdigest()
        return f"{fam.name}-{digest[:20]}"

    def bundle_dir(self, graph: Graph, fam: HierarchyFamily, params: dict) -> Path:
        return self.root / self.bundle_key(graph, fam, params)

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

        The artifact file is written once (an existing one is kept:
        identical content by construction — the key pins graph and token,
        and every backend builds the same arrays); the manifest is
        re-merged so concurrent writers converge.  ``backend_name`` is
        recorded in a new manifest for information only.
        """
        if name not in persisted_names(fam):
            return False
        payload = dump_artifact(fam, name, value)
        if payload is None:
            return False
        bundle = self.bundle_dir(graph, fam, params)
        bundle.mkdir(parents=True, exist_ok=True)
        spec: dict[str, dict] = {}
        arrays = []
        end = 0
        for field, arr in payload.items():
            arr = np.ascontiguousarray(arr)
            offset = -(-end // _ALIGN) * _ALIGN
            spec[field] = {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
            arrays.append((offset, arr))
            end = offset + arr.nbytes
        path = bundle / f"{name}.bin"
        if not path.exists():
            _atomic_write_fields(path, arrays)
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
        self, graph: Graph, fam: HierarchyFamily, params: dict
    ) -> dict[str, object] | None:
        """All reconstructable artifacts of a bundle, or ``None`` on miss.

        Any anomaly (see the module's table) discards the bundle and
        returns ``None`` — but never silently: the discard is classified,
        counted on :mod:`repro.obs` (``store.discard`` with a ``reason``
        label) and logged as a warning carrying the bundle key.  A clean
        absence counts as ``store.miss``; a successful load as
        ``store.hit``.
        """
        bundle = self.bundle_dir(graph, fam, params)
        try:
            try:
                meta = json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
            except FileNotFoundError:
                obs.add("store.miss", family=fam.name)
                return None
            except Exception as exc:
                raise _BundleAnomaly("corrupt_manifest", str(exc)) from exc
            if (
                meta.get("format") != FORMAT_VERSION
                or meta.get("family") != fam.name
                or meta.get("graph", {}).get("digest") != graph.content_digest()
            ):
                raise _BundleAnomaly("identity_mismatch")
            arrays_by_name = {
                name: _map_artifact(bundle / f"{name}.bin", spec)
                for name, spec in meta.get("artifacts", {}).items()
            }
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

    # -- shard state (semi-external fixpoint checkpoints) ---------------
    def shard_state_dir(self, key: str) -> Path:
        """Directory holding one semi-external fixpoint checkpoint.

        ``key`` is any caller-chosen identity string (the semi-external
        decomposition uses the edge-source identity); it is hashed so
        arbitrary strings are filesystem-safe.
        """
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.root / f"{_SHARD_PREFIX}{digest[:20]}"

    def save_shard_state(self, key: str, estimate: np.ndarray, round_: int) -> None:
        """Persist the fixpoint state (whole estimate vector + round).

        Written atomically, array before manifest, so a crash mid-save
        leaves either the previous round's state or a manifest/array pair
        that :meth:`load_shard_state` rejects — never a silent mix.
        """
        state = self.shard_state_dir(key)
        state.mkdir(parents=True, exist_ok=True)
        arr = np.ascontiguousarray(estimate, dtype=np.int64)
        _atomic_save_array(state / "estimate.npy", arr)
        meta = {"key": key, "round": int(round_), "length": len(arr)}
        _atomic_write_text(state / "meta.json", json.dumps(meta, sort_keys=True))
        obs.add("store.persist", family="external", artifact="shard_state")

    def load_shard_state(self, key: str) -> tuple[np.ndarray, int] | None:
        """The checkpoint as ``(estimate, round)``, or ``None``.

        Follows the bundle anomaly rules: any inconsistency (key mismatch,
        corrupt or mis-sized array) discards the checkpoint — a resumed
        fixpoint must never start from a half-valid state.  Estimates are
        monotone upper bounds, so resuming from a *consistent* older round
        only costs extra rounds, never correctness.
        """
        state = self.shard_state_dir(key)
        meta_path = state / "meta.json"
        if not meta_path.exists():
            obs.add("store.miss", family="external")
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if meta.get("key") != key:
                raise _BundleAnomaly("identity_mismatch")
            arr = _load_array(state / "estimate.npy")
            if arr.dtype != np.int64 or arr.ndim != 1 or len(arr) != meta.get("length"):
                raise _BundleAnomaly("shape_mismatch")
            round_ = int(meta["round"])
        except Exception as exc:
            reason = exc.reason if isinstance(exc, _BundleAnomaly) else "corrupt_manifest"
            obs.add("store.discard", family="external", reason=reason)
            logger.warning(
                "discarding shard state %s: %s; the fixpoint restarts from degrees",
                state.name, exc,
            )
            self._discard(state)
            return None
        obs.add("store.hit", family="external")
        return np.asarray(arr, dtype=np.int64), round_

    def clear_shard_state(self, key: str) -> None:
        """Remove one checkpoint (after a converged run)."""
        self._discard(self.shard_state_dir(key))

    # -- epoch snapshots (repro.dynamic lineages) -----------------------
    def epochs_dir(self, lineage: str) -> Path:
        """Directory grouping every epoch record of one graph lineage."""
        return self.root / f"{_EPOCHS_PREFIX}{lineage[:20]}"

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
        """Readable bundles under the root, sorted by key.

        Shard-state checkpoints and epoch lineages are not bundles and are
        not listed.
        """
        out = []
        for path in sorted(
            p for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith((_SHARD_PREFIX, _EPOCHS_PREFIX))
        ):
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

    def prune(self) -> int:
        """Delete every bundle and epoch record of another format.

        A format bump changes every bundle key (the key hashes the
        version), so older bundles are never opened again; this removes
        them, and epoch records likewise, along with any whose manifest
        cannot be read (a write cut short).  Each removal counts as
        ``store.discard`` with reason ``stale_format``, or
        ``corrupt_manifest`` for an unreadable manifest.  Shard-state
        checkpoints are left alone: they carry no format.  Nothing calls
        this on open, so a restart never pays for it; like :meth:`clear`
        it is meant for a store no writer is using.  Returns the number
        removed.
        """
        removed = 0
        for path in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if path.name.startswith(_SHARD_PREFIX):
                continue
            if path.name.startswith(_EPOCHS_PREFIX):
                family, targets = "dynamic", [p for p in path.iterdir() if p.is_dir()]
            else:
                family, targets = path.name.split("-", 1)[0], [path]
            for target in targets:
                meta = self._read_meta(target)
                if meta is not None and meta.get("format") == FORMAT_VERSION:
                    continue
                reason = "corrupt_manifest" if meta is None else "stale_format"
                obs.add("store.discard", family=family, reason=reason)
                logger.info("pruning %s: %s", target.name, reason)
                self._discard(target)
                removed += 1
        return removed

    def clear(self) -> Counter:
        """Delete every directory under the root; counts of ``bundles``,
        ``shard_states`` and ``epoch_lineages`` removed."""
        removed = Counter(bundles=0, shard_states=0, epoch_lineages=0)
        for path in self.root.iterdir() if self.root.exists() else ():
            if path.is_dir():
                removed["shard_states" if path.name.startswith(_SHARD_PREFIX) else
                        "epoch_lineages" if path.name.startswith(_EPOCHS_PREFIX) else
                        "bundles"] += 1
                self._discard(path)
        return removed

    # -- internals ------------------------------------------------------
    @staticmethod
    def _read_meta(bundle: Path) -> dict | None:
        try:
            return json.loads((bundle / "meta.json").read_text(encoding="utf-8"))
        except Exception:
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


def _atomic_write_fields(path: Path, arrays: list[tuple[int, np.ndarray]]) -> None:
    """Write ``(offset, array)`` pairs as one raw file, zero-padded between."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for offset, arr in arrays:
                fh.write(bytes(offset - fh.tell()))
                fh.write(arr.data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _field_layout(fspec: dict) -> tuple[np.dtype, tuple[int, ...], int, int]:
    """One manifest field entry as ``(dtype, shape, offset, nbytes)``."""
    try:
        dtype = np.dtype(fspec["dtype"])
        shape = tuple(operator.index(d) for d in fspec["shape"])
        offset = operator.index(fspec["offset"])
        nbytes = operator.index(fspec["nbytes"])
    except Exception as exc:
        raise _BundleAnomaly("corrupt_manifest", f"field entry {fspec!r}") from exc
    if min((offset, nbytes) + shape) < 0:
        raise _BundleAnomaly("corrupt_manifest", f"field entry {fspec!r}")
    if dtype.itemsize * math.prod(shape) != nbytes:
        raise _BundleAnomaly("shape_mismatch", f"field entry {fspec!r}")
    return dtype, shape, offset, nbytes


def _map_artifact(path: Path, spec: dict) -> dict[str, np.ndarray]:
    """Map one artifact file and view its fields, read-only.

    One ``open``, one ``fstat`` and at most one ``mmap``; the descriptor is
    closed at once (the map outlives it).  Zero-length fields become empty
    arrays without a map.
    """
    layout = {field: _field_layout(fspec) for field, fspec in spec.items()}
    end = max((offset + nbytes for _, _, offset, nbytes in layout.values()), default=0)
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError as exc:
        raise _BundleAnomaly("missing_field", path.name) from exc
    try:
        size = os.fstat(fd).st_size
        if size < end:
            raise _BundleAnomaly("corrupt_array", f"{path.name}: {size} < {end} bytes")
        if size > end:
            raise _BundleAnomaly("shape_mismatch", f"{path.name}: {size} > {end} bytes")
        buf = mmap.mmap(fd, size, access=mmap.ACCESS_READ) if size else None
    finally:
        os.close(fd)
    fields = {}
    for field, (dtype, shape, offset, nbytes) in layout.items():
        if nbytes:
            arr = np.frombuffer(
                buf, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
            ).reshape(shape)
        else:
            arr = np.empty(shape, dtype=dtype)
            arr.setflags(write=False)
        fields[field] = arr
    return fields


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
