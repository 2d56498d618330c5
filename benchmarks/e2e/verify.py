"""Answer checks that do not trust the code under test.

* Graph structure: the benchmark builds the expected CSR arrays of every
  input and every churn snapshot itself (numpy only) and compares digests.
* Coreness: ``networkx.core_number``.
* Best-k answers: ``(k, score bits, vertex-set digest)`` tuples compared
  with a cold index on the python reference backend, or with a cold index
  on the churned snapshot.

Everything here runs outside the timed windows.
"""

from __future__ import annotations

import hashlib

import numpy as np


def first_appearance_ids(edges: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel endpoints in order of first appearance, as the parser does.

    Reading ``u v`` lines left to right, each new label gets the next dense
    id.  Returns the relabelled ``(k, 2)`` edges and the vertex count.
    """
    flat = edges.ravel()
    labels, first = np.unique(flat, return_index=True)
    order = np.argsort(first, kind="stable")
    ids = np.empty(len(labels), dtype=np.int64)
    ids[order] = np.arange(len(labels), dtype=np.int64)
    return ids[np.searchsorted(labels, flat)].reshape(edges.shape), len(labels)


def csr_arrays(edges: np.ndarray, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, indices)`` with sorted adjacency slices."""
    src = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    dst = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int64)
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return indptr, dst[order]


def csr_digest(indptr: np.ndarray, indices: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def array_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int64).tobytes()).hexdigest()


def answer_tuple(result) -> tuple[int, str, str]:
    """``(k, score bits, sorted vertex-set digest)`` of one best-k answer."""
    vertices = np.sort(np.asarray(result.vertices, dtype=np.int64))
    return int(result.k), float(result.score).hex(), array_digest(vertices)[:16]


def answer_tuples(answers: dict) -> dict:
    return {key: answer_tuple(res) for key, res in answers.items()}


def networkx_coreness(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Core numbers of the CSR graph according to networkx."""
    import networkx as nx

    n = len(indptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = src < indices
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(src[keep].tolist(), indices[keep].tolist()))
    core = nx.core_number(graph)
    return np.fromiter((core[v] for v in range(n)), dtype=np.int64, count=n)
