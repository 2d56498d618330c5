"""Unit tests for edge-list I/O."""

import gzip
import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import Graph, load_edge_list, save_edge_list
from repro.graph.io import (
    _first_appearance, _integer_rows, _open_text, _parse_lines, iter_edge_lines,
)


class TestRoundTrip:
    def test_plain_round_trip(self, figure2, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(figure2, path)
        loaded = load_edge_list(path)
        assert loaded.graph == figure2

    def test_gzip_round_trip(self, figure2, tmp_path):
        path = tmp_path / "g.txt.gz"
        save_edge_list(figure2, path, header="compressed test")
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("# compressed test")
        loaded = load_edge_list(path)
        assert loaded.graph == figure2

    def test_header_written_as_comments(self, figure2, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(figure2, path, header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n\n0 1\n# mid comment\n1 2\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_edges == 2

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5 1234\n1 2 0.7 999\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_edges == 2

    def test_short_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nonlyone\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list(path)

    def test_dirty_input_cleaned_and_counted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n2 2\n1 2\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_edges == 2
        assert loaded.num_duplicates_dropped == 1
        assert loaded.num_self_loops_dropped == 1

    def test_sparse_integer_ids_relabelled(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1000000 2000000\n2000000 42\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_vertices == 3
        assert loaded.labels == [1000000, 2000000, 42]

    def test_string_labels(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\nbob carol\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_vertices == 3
        assert "alice" in loaded.labels

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n1,2\n")
        loaded = load_edge_list(path, delimiter=",")
        assert loaded.graph.num_edges == 2

    def test_iter_edge_lines_stream(self):
        stream = io.StringIO("# c\n0 1\n")
        assert list(iter_edge_lines(stream)) == [("0", "1")]


# ----------------------------------------------------------------------
# The array path against the line path
# ----------------------------------------------------------------------
def _outcome(load):
    """Everything a load yields, or the error it raised, as comparable data."""
    try:
        loaded = load()
    except GraphFormatError as exc:
        return ("GraphFormatError", str(exc))  # the message names the line
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return (type(exc).__name__,)
    return (
        [(type(label), label) for label in loaded.labels],
        loaded.graph.indptr.tolist(),
        loaded.graph.indices.tolist(),
        loaded.num_self_loops_dropped,
        loaded.num_duplicates_dropped,
    )


def _line_path(path):
    with _open_text(path, "r") as handle:
        return _parse_lines(handle, comments="#", delimiter=None, as_int=True)


def _spellings(value):
    """Spellings the line path's ``int()`` reads as ``value``."""
    digits = str(abs(value))
    spellings = [str(value), "0" + digits if value >= 0 else "-0" + digits]
    if value >= 0:
        spellings.append("+" + digits)
    return st.sampled_from(spellings)


_LABELS = st.one_of(
    st.integers(-3, 25),                    # dense, with negatives
    st.integers(1 - 10**18, 10**18 - 1),    # sparse: the np.unique relabel
    st.sampled_from([0, 10**6, 10**12, 10**18, 2**63 - 1, -(2**63)]),
).flatmap(_spellings)
#: Fields the array path must decline.
_ODD_FIELDS = st.sampled_from([
    "a", "x1", "1.5", "1e3", "1_0", "#4", "0x1f", "--1", "+", "2**3",
    str(2**63), str(-(2**63) - 1), "\u0663", "\ufeff1",
])
_BLANKS = st.text(" \t", min_size=1, max_size=3)


@st.composite
def _edge_files(draw):
    """A messy edge list as ``(raw bytes, every field an integer)``."""
    integer, lines, edges = True, [], []
    kinds = ["edge"] * 6 + ["loop", "repeat", "comment", "blank"]
    if draw(st.booleans()):
        kinds += ["short", "odd", "odd"]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        pad = draw(st.sampled_from(["", " ", "\t", "  "]))
        if kind == "comment":
            lines.append(pad + "#" + draw(st.sampled_from(["", " n=3", " é  ü", " 1 2", "#"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        if kind == "short":
            integer = False
            lines.append(pad + draw(_LABELS))
            continue
        fields = [draw(_LABELS), draw(_LABELS)]
        if kind == "loop":
            fields[1] = fields[0]
        elif kind == "repeat" and edges:
            fields = list(draw(st.sampled_from(edges)))
            if draw(st.booleans()):
                fields.reverse()
        elif kind == "odd":
            integer = False
            fields[draw(st.integers(0, 1))] = draw(_ODD_FIELDS)
        edges.append(tuple(fields))
        fields += draw(st.lists(_LABELS, max_size=2))  # extra fields are ignored
        seps = [draw(_BLANKS) for _ in fields[1:]] + [draw(st.sampled_from(["", " ", "\t"]))]
        lines.append(pad + "".join(f + sep for f, sep in zip(fields, seps)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text.encode("utf-8"), integer


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_edge_files(), compress=st.booleans())
def test_array_path_matches_line_path(tmp_path, case, compress):
    raw, integer = case
    path = tmp_path / ("g.txt.gz" if compress else "g.txt")
    path.write_bytes(gzip.compress(raw) if compress else raw)
    assert _outcome(lambda: load_edge_list(path)) == _outcome(lambda: _line_path(path))
    if integer:
        assert load_edge_list(path).parser == "array"


@pytest.mark.parametrize("raw, declined", [
    (b"0 1\n3 #4\n", "'#' after a field"),
    (b"0 1\r2 3\n", "carriage return"),
    (b"# a\rb\n0 1\n", "carriage return"),
    (b"0 1\n1 x\n", "byte other than"),
    (b"0 1 0.5\n", "byte other than"),
    ("0 1\n1\u00a02\n".encode("utf-8"), "byte other than"),
    (b"0 1\n\xff 2\n", "not UTF-8"),
    (b"# \xff\n0 1\n", "not UTF-8"),
    (b"0 1\n2\n", "two int64 fields"),
    (b"0 +-1\n", "two int64 fields"),
    (b"0 99999999999999999999\n", "two int64 fields"),
    (b"0 -9223372036854775809\n", "two int64 fields"),
])
def test_array_path_declines_to_line_path(tmp_path, raw, declined):
    rows, why = _integer_rows(raw)
    assert rows is None and declined in why
    path = tmp_path / "g.txt"
    path.write_bytes(raw)
    assert _outcome(lambda: load_edge_list(path)) == _outcome(lambda: _line_path(path))


def test_int64_overflow_declines_without_a_warning(tmp_path):
    """numpy < 2 reads an overflowing field through a float with a warning."""
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n1 99999999999999999999\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_edge_list(path)
    assert loaded.parser == "lines" and "int64" in loaded.declined
    assert loaded.labels == [0, 1, 99999999999999999999]


def test_int64_extremes_take_array_path(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"9223372036854775807 -9223372036854775808\n+01 -0\n")
    loaded = load_edge_list(path)
    assert loaded.parser == "array"
    assert loaded.labels == [2**63 - 1, -(2**63), 1, 0]
    assert _outcome(lambda: loaded) == _outcome(lambda: _line_path(path))


def _first_appearance_reference(tokens):
    seen = {}
    ids = [seen.setdefault(t, len(seen)) for t in tokens]
    return ids, list(seen)


@pytest.mark.parametrize("tokens", [
    [],
    [7],
    [5, 3, 5, 4, 3, 3, 9],                    # span below the count: the table
    [-2, 0, -2, 1, 1, 0],
    [10**12, 0, 10**12, 5, -(2**63), 0],      # span above the count: np.unique
    [2**63 - 1, -(2**63), 2**63 - 1],
])
def test_first_appearance_relabel(tokens):
    ids, labels = _first_appearance(np.array(tokens, dtype=np.int64))
    assert (ids.tolist(), labels.tolist()) == _first_appearance_reference(tokens)


@given(tokens=st.one_of(
    st.lists(st.integers(-5, 30), max_size=60),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=20),
))
def test_first_appearance_matches_reference(tokens):
    test_first_appearance_relabel(tokens)


def test_non_default_arguments_take_line_path(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    loaded = load_edge_list(path, as_int=False)
    assert (loaded.parser, loaded.labels) == ("lines", ["0", "1", "2"])
    assert "as_int" in loaded.declined
    loaded = load_edge_list(path, comments="%")
    assert (loaded.parser, loaded.labels) == ("lines", [0, 1, 2])
    assert load_edge_list(path).parser == "array"


@pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
def test_savetxt_edge_list_takes_array_path(tmp_path, suffix):
    """A ``# header`` line then ``np.savetxt(fmt="%d")``, as the e2e inputs are written."""
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 300, size=(2000, 2))
    path = tmp_path / f"g{suffix}"
    with _open_text(path, "w") as handle:
        handle.write("# header seed=3\n")
        np.savetxt(handle, edges, fmt="%d")
    loaded = load_edge_list(path)
    assert loaded.parser == "array" and loaded.declined is None
    assert _outcome(lambda: loaded) == _outcome(lambda: _line_path(path))
    assert loaded.num_self_loops_dropped == int((edges[:, 0] == edges[:, 1]).sum())
