"""Edge-list readers and writers.

The paper's datasets are distributed as SNAP-style text edge lists: one edge
per line, whitespace separated, ``#`` comment lines.  This module reads and
writes that format (optionally gzip-compressed) into the package's CSR
:class:`~repro.graph.csr.Graph`; dirty input (duplicates, self loops, sparse
ids) is cleaned by one :func:`~repro.graph.csr.simple_csr` pass.

:func:`load_edge_list` has two parse paths with one result.  The *array*
path reads the common case in whole-array passes: numpy's C tokeniser, a
first-appearance relabel and one arc sort.  It takes a file only when,
outside ``#`` comment lines, every byte is an ASCII digit, ``+``, ``-``,
space, tab or a ``\\n`` / ``\\r\\n`` line end, and every edge line has two
int64 fields.  Any other file runs the *line* path: one
:class:`~repro.graph.builder.GraphBuilder` call per line.  It is the only
path that raises :class:`~repro.errors.GraphFormatError`, so errors keep
their line numbers.
"""

from __future__ import annotations

import gzip
import io
import os
import warnings
from typing import IO, Iterator

import numpy as np

from ..errors import GraphFormatError
from .builder import GraphBuilder
from .csr import Graph, simple_csr

__all__ = [
    "LoadedGraph",
    "iter_edge_lines",
    "load_edge_list",
    "load_metis",
    "load_npz",
    "save_edge_list",
    "save_metis",
    "save_npz",
]

#: Every byte the array path accepts outside comment lines (``\r`` only
#: before ``\n``).
_INTEGER_GRAMMAR = b"0123456789+- \t\r\n"


class LoadedGraph:
    """A graph loaded from disk together with its label mapping.

    Attributes
    ----------
    graph:
        The clean CSR graph with dense vertex ids ``0..n-1``.
    labels:
        ``labels[i]`` is the original id of dense vertex ``i``: an ``int``
        for integer fields, else the field's string.
    num_self_loops_dropped / num_duplicates_dropped:
        Hygiene counters of the CSR build.
    parser:
        ``"array"`` or ``"lines"``: the parse path that ran.
    declined:
        Why the array path declined the file (``None`` when it ran).
    """

    def __init__(
        self, graph: Graph, labels: list, loops: int, dups: int, *,
        parser: str, declined: str | None = None,
    ):
        self.graph = graph
        self.labels = labels
        self.num_self_loops_dropped = loops
        self.num_duplicates_dropped = dups
        self.parser = parser
        self.declined = declined

    def __repr__(self) -> str:
        return (
            f"LoadedGraph({self.graph!r}, dropped {self.num_self_loops_dropped} loops, "
            f"{self.num_duplicates_dropped} duplicates, parser={self.parser!r})"
        )


def _open_text(path: str | os.PathLike, mode: str) -> IO[str]:
    """Open ``path`` as text, transparently handling ``.gz`` suffixes."""
    path = os.fspath(path)
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode + "t", encoding="utf-8")


def _read_bytes(path: str | os.PathLike) -> bytes:
    """The whole (decompressed, for ``.gz``) content of ``path``."""
    path = os.fspath(path)
    with (gzip.open if path.endswith(".gz") else open)(path, "rb") as handle:
        return handle.read()


def iter_edge_lines(
    handle: IO[str], *, comments: str = "#", delimiter: str | None = None
) -> Iterator[tuple[str, str]]:
    """Yield ``(u, v)`` label pairs from an edge-list text stream.

    Blank lines and lines starting with ``comments`` are skipped.  A line
    with fewer than two fields raises :class:`GraphFormatError`; extra fields
    (e.g. weights or timestamps in some SNAP dumps) are ignored.
    """
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or (comments and line.startswith(comments)):
            continue
        parts = line.split(delimiter)
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected at least two fields, got {line!r}")
        yield parts[0], parts[1]


def load_edge_list(
    path: str | os.PathLike,
    *,
    comments: str = "#",
    delimiter: str | None = None,
    as_int: bool = True,
) -> LoadedGraph:
    """Load a SNAP-style edge list from ``path`` (gzip auto-detected).

    Parameters
    ----------
    path:
        File path; ``.gz`` files are decompressed on the fly.
    comments:
        Comment prefix (default ``#``).
    delimiter:
        Field delimiter; ``None`` splits on any whitespace.
    as_int:
        When true, fields are parsed as integers (the common SNAP case) so
        that numeric labels sort naturally; non-numeric input falls back to
        string labels automatically.

    Returns
    -------
    LoadedGraph
        Clean CSR graph plus the original label mapping.  Dense ids follow
        the order in which labels first appear in the file, whichever parse
        path ran (see the module docstring).
    """
    if (comments, delimiter, as_int) == ("#", None, True):
        rows, declined = _integer_rows(_read_bytes(path))
        if rows is not None:
            ids, labels = _first_appearance(rows.ravel())
            graph, loops, dups = simple_csr(ids[0::2], ids[1::2], len(labels))
            return LoadedGraph(graph, labels.tolist(), loops, dups, parser="array")
    else:
        declined = "arguments other than comments='#', delimiter=None, as_int=True"
    with _open_text(path, "r") as handle:
        loaded = _parse_lines(handle, comments=comments, delimiter=delimiter, as_int=as_int)
    loaded.declined = declined
    return loaded


def _parse_lines(
    handle: IO[str], *, comments: str, delimiter: str | None, as_int: bool
) -> LoadedGraph:
    """The line path: one :class:`GraphBuilder` call per edge line."""
    builder = GraphBuilder()
    for u, v in iter_edge_lines(handle, comments=comments, delimiter=delimiter):
        if as_int:
            try:
                builder.add_edge(int(u), int(v))
                continue
            except ValueError:
                pass
        builder.add_edge(u, v)
    graph = builder.build()
    return LoadedGraph(
        graph, builder.labels, builder.num_self_loops_dropped, builder.num_duplicates_dropped,
        parser="lines",
    )


def _integer_rows(data: bytes) -> tuple[np.ndarray | None, str | None]:
    """The array path's tokeniser: the first two fields of each edge line.

    Returns ``(rows, None)``, ``rows`` an ``(m, 2)`` int64 array, when
    ``data`` is in the grammar of the module docstring; else ``(None,
    why)``.  Only whole-buffer calls run here, plus a few per comment line,
    and none of them copies the edge lines.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")  # non-ASCII may only sit in comments
        except UnicodeDecodeError:
            return None, "not UTF-8"
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None, "a carriage return outside a \\r\\n line end"
    # Every byte outside the grammar must sit in a comment line.  A '#' after
    # a field on its line declines: the line path reads "3 #4" as the string
    # labels '3' and '#4', where loadtxt would cut a comment.
    outside, pos = len(data.translate(None, _INTEGER_GRAMMAR)), 0
    while outside and (mark := data.find(b"#", pos)) >= 0:
        start = data.rfind(b"\n", 0, mark) + 1
        if data[start:mark].strip(b" \t"):
            return None, "a '#' after a field"
        pos = data.find(b"\n", mark) + 1 or len(data)
        outside -= len(data[mark:pos].translate(None, _INTEGER_GRAMMAR))
    if outside:
        return None, "a byte other than digits, '+', '-', space, tab and line ends"
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads a field beyond int64 through a float, with a
            # DeprecationWarning; as an error it declines as on numpy >= 2.
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)  # a file with no edge line
            rows = np.loadtxt(io.BytesIO(data), dtype=np.int64, comments="#",
                              usecols=(0, 1), ndmin=2)
    except (ValueError, OverflowError, DeprecationWarning):
        # A short line, a malformed sign or a label beyond int64.
        return None, "a line numpy cannot read as two int64 fields"
    return rows, None


def _first_appearance(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for ``tokens``, numbered in order of first appearance.

    Returns ``(ids, labels)`` with ``labels[ids] == tokens``: the ids
    :meth:`GraphBuilder.vertex_id` hands out when fed ``tokens`` in order.
    O(m) through a ``label - min`` table when the label span is below the
    token count, so the table is never larger than ``tokens``; O(m log m)
    through :func:`numpy.unique` otherwise.
    """
    if not len(tokens):
        return tokens, tokens
    positions = np.arange(len(tokens))
    low, high = int(tokens.min()), int(tokens.max())
    if high - low < len(tokens):
        offsets = tokens - low
        first = np.empty(high - low + 1, dtype=np.int64)
        # An index assigned more than once keeps its last value, so writing
        # the positions in reverse leaves each label's first position.
        first[offsets[::-1]] = positions[::-1]
        where = first[offsets]
    else:
        _, index, inverse = np.unique(tokens, return_index=True, return_inverse=True)
        where = index[inverse.ravel()]
    is_first = where == positions
    dense = np.cumsum(is_first, dtype=np.int64) - 1
    return dense[where], tokens[is_first]


def save_edge_list(graph: Graph, path: str | os.PathLike, *, header: str | None = None) -> None:
    """Write ``graph`` to ``path`` as a text edge list (gzip by suffix).

    Each undirected edge is written once as ``u v`` with ``u < v``.
    """
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


# ----------------------------------------------------------------------
# Binary cache (.npz) and METIS formats
# ----------------------------------------------------------------------

def save_npz(graph: Graph, path: str | os.PathLike) -> None:
    """Save a graph as a compressed ``.npz`` CSR snapshot.

    Loading an ``.npz`` is one :func:`numpy.load` call — orders of
    magnitude faster than re-parsing a text edge list, which matters when
    the benchmark suite re-reads the larger stand-ins repeatedly.
    """
    import numpy as np

    np.savez_compressed(os.fspath(path), indptr=graph.indptr, indices=graph.indices)


def load_npz(path: str | os.PathLike) -> Graph:
    """Load a graph saved by :func:`save_npz` (validated on load)."""
    import numpy as np

    with np.load(os.fspath(path)) as data:
        try:
            indptr, indices = data["indptr"], data["indices"]
        except KeyError as exc:
            raise GraphFormatError(f"{path}: not a graph snapshot (missing {exc})") from exc
        return Graph(indptr.copy(), indices.copy())


def load_metis(path: str | os.PathLike) -> Graph:
    """Load a graph in METIS ASCII format.

    METIS files start with a header line ``n m [fmt]``; line ``i`` of the
    body lists the (1-indexed) neighbours of vertex ``i``.  Only the
    unweighted format (``fmt`` absent or ``0``/``00``/``000``) is
    supported; weighted headers raise :class:`GraphFormatError`.
    """
    from .builder import GraphBuilder

    with _open_text(path, "r") as handle:
        header = None
        rows: list[list[int]] = []
        for raw in handle:
            line = raw.strip()
            if line.startswith("%"):
                continue
            if header is None:
                if not line:
                    continue
                header = line.split()
                if len(header) >= 3 and int(header[2] or 0) != 0:
                    raise GraphFormatError("weighted METIS formats are not supported")
                continue
            # A blank body line is a vertex with no neighbours.
            rows.append([int(tok) for tok in line.split()])
    if header is None:
        raise GraphFormatError(f"{path}: empty METIS file")
    n, m = int(header[0]), int(header[1])
    if len(rows) != n:
        raise GraphFormatError(f"{path}: header says n={n} but found {len(rows)} adjacency lines")
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    for v, nbrs in enumerate(rows):
        for u in nbrs:
            if not 1 <= u <= n:
                raise GraphFormatError(f"{path}: neighbour index {u} out of range 1..{n}")
            if v < u - 1:
                builder.add_edge(v, u - 1)
    graph = builder.build()
    if graph.num_edges != m:
        raise GraphFormatError(
            f"{path}: header says m={m} but adjacency encodes {graph.num_edges} edges"
        )
    return graph


def save_metis(graph: Graph, path: str | os.PathLike) -> None:
    """Write a graph in METIS ASCII format (1-indexed adjacency lines)."""
    with _open_text(path, "w") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            handle.write(" ".join(str(int(u) + 1) for u in graph.neighbors(v)) + "\n")
