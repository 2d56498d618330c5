"""Seeded, cached inputs for the four workloads.

Inputs are files, as a user would hand them to the program: SNAP-style
edge lists, plus ``.npy``/``.npz`` arrays for edge weights and the churn
delta stream.  They are a pure function of (workload, seed, parameters):
each set lives in its own directory under the cache, keyed by all three,
and is reused by later runs.  Generation is never timed.  Every array
that names vertices uses the ids the edge-list parser assigns (order of
first appearance), so deltas and checks line up with the loaded graph.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from verify import csr_arrays, csr_digest, first_appearance_ids

WORKLOADS = ("static-cl250k", "churn-cl250k", "warm-cl250k", "families-cl50k")

#: Input directories kept in the cache; older ones are deleted.
CACHE_KEEP = 12

#: Insert (and delete) count of successive churn deltas, repeated.  With
#: each size once, half the epochs are small-delta ones and the median
#: epoch falls on the gap between their latencies and the rebuild epochs',
#: so it jumps by 10% between runs; the second 10 puts it inside one size.
DELTA_CYCLE = (1, 10, 10, 100, 1000)


def _chung_lu(num_vertices: int) -> dict:
    return {
        "generator": "powerlaw_chung_lu",
        "num_vertices": num_vertices,
        "avg_degree": 10.0,
        "exponent": 2.3,
    }


def workload_params(workload: str, smoke: bool) -> dict:
    """Generator parameters of one workload (``smoke`` shrinks them)."""
    big = 4_000 if smoke else 50_000
    if workload in ("static-cl250k", "warm-cl250k"):
        return {"graph": _chung_lu(big)}
    if workload == "churn-cl250k":
        return {
            "graph": _chung_lu(big),
            "delta_cycle": list(DELTA_CYCLE),
            "max_epochs": 8 if smoke else 200,
        }
    if workload == "families-cl50k":
        return {
            "graph": _chung_lu(2_000 if smoke else 10_000),
            "weights": {"distribution": "lognormal", "mean": 0.0, "sigma": 0.75},
            "num_levels": 64,
            # One fixed instance: the Stoer-Wagner sweep's cost varies 2x
            # between planted-partition instances of these parameters.
            "ecc_graph": {
                "generator": "planted_partition",
                "seed": 0,
                "num_communities": 3,
                "community_size": 10 if smoke else 20,
                "p_in": 0.3,
                "p_out": 0.02,
            },
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _generate(spec: dict, seed: int) -> np.ndarray:
    """Undirected edges ``(m, 2)`` with ``u < v`` from a generator spec.

    A ``seed`` in the spec overrides the workload seed.
    """
    from repro.generators import planted_partition, powerlaw_chung_lu

    seed = spec.get("seed", seed)
    if spec["generator"] == "powerlaw_chung_lu":
        graph = powerlaw_chung_lu(
            spec["num_vertices"], spec["avg_degree"], spec["exponent"], seed=seed
        )
    else:
        graph, _ = planted_partition(
            spec["num_communities"], spec["community_size"],
            spec["p_in"], spec["p_out"], seed=seed,
        )
    return graph.edge_array()


def _write_edge_list(path: Path, edges: np.ndarray, header: str) -> dict:
    """Write ``edges`` as text and describe the graph the parser must build."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        np.savetxt(fh, edges, fmt="%d")
    relabelled, n = first_appearance_ids(edges)
    return {
        "num_vertices": n,
        "num_edges": len(edges),
        "csr_sha256": csr_digest(*csr_arrays(relabelled, n)),
        "relabelled": relabelled,
    }


def _build(workload: str, seed: int, params: dict, out: Path) -> dict:
    """Write every input file of one workload into ``out``; returns facts."""
    facts: dict = {}
    edges = _generate(params["graph"], seed)
    header = f"{workload} seed={seed} {json.dumps(params['graph'], sort_keys=True)}"
    if workload == "churn-cl250k":
        # Inserts re-add held-out edges and deletes remove base edges; the
        # pools are disjoint slices, so every operation is effective once.
        cycle = params["delta_cycle"]
        pool = sum(cycle) * math.ceil(params["max_epochs"] / len(cycle))
        perm = np.random.default_rng([seed, 1]).permutation(len(edges))
        held = np.zeros(len(edges), dtype=bool)
        held[perm[:pool]] = True
        base = edges[~held]
        graph = _write_edge_list(out / "graph.txt", base, header)
        # Endpoints of held-out edges that vanished from the base file grow
        # the graph; they get ids after the parser's, in stream order.
        inserts, deletes = edges[perm[:pool]], edges[perm[pool:2 * pool]]
        mapping = dict(zip(base.ravel().tolist(), graph["relabelled"].ravel().tolist()))
        for v in inserts.ravel().tolist():
            if v not in mapping:
                mapping[v] = len(mapping)
        ins_ids = np.array([mapping[v] for v in inserts.ravel().tolist()], dtype=np.int64)
        del_ids = np.array([mapping[v] for v in deletes.ravel().tolist()], dtype=np.int64)
        ins_ids, del_ids = ins_ids.reshape(inserts.shape), del_ids.reshape(deletes.shape)
        np.savez(out / "deltas.npz", base=graph["relabelled"], insert=ins_ids, delete=del_ids)
    else:
        graph = _write_edge_list(out / "graph.txt", edges, header)
    facts["graph"] = graph
    if workload == "families-cl50k":
        rng = np.random.default_rng([seed, 2])
        w = params["weights"]
        np.save(out / "weights.npy", rng.lognormal(w["mean"], w["sigma"], graph["num_edges"]))
        ecc_edges = _generate(params["ecc_graph"], seed)
        ecc_header = f"{workload} seed={seed} {json.dumps(params['ecc_graph'], sort_keys=True)}"
        facts["ecc_graph"] = _write_edge_list(out / "ecc_graph.txt", ecc_edges, ecc_header)
    for fact in facts.values():
        del fact["relabelled"]
    return facts


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def prepare(workload: str, seed: int, smoke: bool, cache: Path) -> dict:
    """Return the input manifest of one workload, generating it if needed.

    The manifest lists each file with its sha256 (recomputed on every
    call, so a damaged cache entry is visible in the record) and, for each
    edge list, the digest of the CSR graph the parser must produce.
    """
    params = workload_params(workload, smoke)
    key = hashlib.sha256(
        json.dumps({"workload": workload, "seed": seed, "params": params}, sort_keys=True).encode()
    ).hexdigest()[:12]
    root = cache / "inputs"
    final = root / f"{workload}-s{seed}-{key}"
    manifest_path = final / "manifest.json"
    if not manifest_path.exists():
        tmp = root / f".tmp-{final.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        facts = _build(workload, seed, params, tmp)
        manifest = {"workload": workload, "seed": seed, "params": params, "graphs": facts}
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        _prune(root)
    manifest = json.loads(manifest_path.read_text())
    os.utime(final)
    manifest["dir"] = str(final)
    manifest["files"] = {
        p.name: _sha256(p) for p in sorted(final.iterdir()) if p.name != "manifest.json"
    }
    return manifest


def _prune(root: Path) -> None:
    entries = sorted(
        (p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for old in entries[:-CACHE_KEEP]:
        shutil.rmtree(old, ignore_errors=True)
