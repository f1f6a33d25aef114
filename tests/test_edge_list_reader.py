"""The block edge-list reader against the per-line oracle readers.

Hypothesis writes random edge-list files of plain rows with a per-file
share of exotic lines: comments (whole-line and inline), blank lines,
CRLF and lone CR line ends, tabs, 1/4-column rows, ``+``/``_``/non-ASCII
digits, ids around ``2**63``, negative ids, non-positive weights, bad
UTF-8 and a missing final newline.  Each file is read with the block size
shrunk to a few bytes, or left large enough to hold the file.  Every reading must match
:mod:`oracles.edge_list`:

* :func:`~repro.graph.io.iter_edge_list_chunks` (``ingest``) yields the
  oracle's rows in the same batches;
* :func:`~repro.graph.io.load_directed_edge_list` (``partition``) equals
  ``to_weighted_csr`` of the oracle's directed graph;
* :func:`~repro.graph.io.load_undirected_edge_list` (``serve``) equals
  ``CSRGraph.from_undirected`` of the oracle's undirected graph, half-edge
  order included;
* an ingested store equals ``CSRGraph.from_edge_list`` of the rows;

or all of them fail like the oracle: a malformed line as
``GraphFormatError`` naming the same line, and a graph-level error
(negative id, non-positive weight) with the same message, when an
earlier line than the malformed one causes it.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.edge_list import (
    expected_rows,
    read_directed_edge_list,
    read_undirected_edge_list,
)
from repro.errors import GraphError, GraphFormatError
from repro.graph import io as graph_io
from repro.graph.conversion import to_weighted_csr
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    ingest_edge_list,
    iter_edge_list_chunks,
    load_directed_edge_list,
    load_undirected_edge_list,
)
from repro.graph.mmap_store import open_store

_ARRAYS = ("indptr", "indices", "weights", "original_ids")
_ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"


def _digits(value: int, style: str) -> str:
    text = str(value)
    if style == "plus" and value >= 0:
        return "+" + text
    if style == "zeros":
        return text.replace(text.lstrip("-"), "00" + text.lstrip("-"))
    if style == "underscore" and abs(value) >= 10:
        return text[:-1] + "_" + text[-1]
    if style == "arabic":
        return "".join(_ARABIC_DIGITS[int(c)] if c.isdigit() else c for c in text)
    return text


_STYLES = st.sampled_from(["plain"] * 12 + ["plus", "zeros", "underscore", "arabic"])
_IDS = st.one_of(
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(-2, -1),
    st.sampled_from([2**63 - 1, 2**63 - 2, 2**63, 2**64 + 1, -(2**63), -(2**63) - 1]),
)
_WEIGHTS = st.one_of(st.integers(1, 5), st.integers(1, 5), st.integers(-1, 0))
_BLANKS = st.sampled_from([" ", "  ", "\t", " \t "])
_FIELD = st.one_of(
    st.builds(_digits, _IDS, _STYLES),
    st.builds(_digits, _IDS, _STYLES),
    st.builds(_digits, _IDS, _STYLES),
    st.builds(_digits, _IDS, _STYLES),
    st.sampled_from(["x", "1.5", "0x1", "--1"]),
)


@st.composite
def _edge_line(draw) -> bytes:
    count = draw(st.sampled_from([2] * 6 + [3] * 4 + [1, 4]))
    fields = [draw(_FIELD) for _ in range(min(count, 2))]
    if count >= 3:
        fields.append(_digits(draw(_WEIGHTS), draw(_STYLES)))
    if count == 4:
        fields.append(draw(_FIELD))
    text = draw(_BLANKS).join(fields)
    if draw(st.integers(0, 9)) == 0:
        text = draw(_BLANKS) + text
    if draw(st.integers(0, 9)) == 0:
        text += draw(_BLANKS)
    if draw(st.integers(0, 19)) == 0:
        text += " # inline"
    return text.encode("utf-8")


_EXOTIC_LINE = st.one_of(
    _edge_line(),
    _edge_line(),
    _edge_line(),
    st.sampled_from([b"\t \t", b"  # 1 2", "# été 12".encode()]),
    st.sampled_from([b"1 2\xff", b"# bad \xc3", b"\xe2\x82 3 4", b"5 6\r7 8"]),
)


@st.composite
def _plain_line(draw, columns: tuple[int, ...]) -> bytes:
    fields = [draw(st.integers(0, 12)), draw(st.integers(0, 12))]
    if draw(st.sampled_from(columns)) == 3:
        fields.append(draw(st.integers(1, 5)))
    return draw(_BLANKS).join(map(str, fields)).encode()


_BLOCK_BYTES = st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 22])


@st.composite
def _edge_file(draw) -> bytes:
    """Mostly plain rows (so whole blocks take the numpy read), with a
    per-file share of exotic lines."""
    columns = draw(st.sampled_from([(2,), (3,), (2, 3)]))
    exotic = draw(st.sampled_from([0, 0, 1, 4]))  # exotic lines per 12
    end = draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
    data = b""
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 11))
        if kind < exotic:
            line = draw(_EXOTIC_LINE)
        elif kind == 11:
            line = draw(st.sampled_from([b"", b" ", b"# comment", b"\t#x y z"]))
        else:
            line = draw(_plain_line(columns))
        data += line + end
    if data and draw(st.booleans()):
        data = data[: -len(end)]  # no final line end
    return data


def _line_of(error: Exception) -> int:
    match = re.match(r"line (\d+):", str(error))
    assert match, str(error)
    return int(match.group(1))


def _outcome(call):
    """``("ok", value)`` or ``(error class, line number or message)``."""
    try:
        return "ok", call()
    except GraphFormatError as error:
        return GraphFormatError, _line_of(error)
    except GraphError as error:
        return GraphError, str(error)


def _csr_arrays(graph: CSRGraph) -> tuple:
    return tuple(np.asarray(getattr(graph, name)).tolist() for name in _ARRAYS)


def _expected(tmp_path, data: bytes, build):
    """The oracle outcome: ``build`` over the good prefix, then the bad line."""
    _, bad_line = expected_rows(data)
    prefix = tmp_path / "prefix.txt"
    good = data if bad_line is None else b"".join(data.splitlines(keepends=True)[: bad_line - 1])
    prefix.write_bytes(good)
    outcome = _outcome(lambda: _csr_arrays(build(prefix)))
    if outcome[0] == "ok" and bad_line is not None:
        return GraphFormatError, bad_line
    return outcome


@settings(max_examples=400, deadline=None)
@given(data=_edge_file(), block=_BLOCK_BYTES, chunk=st.integers(1, 7))
def test_readers_match_the_per_line_oracle(tmp_path_factory, data, block, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_io, "_BLOCK_BYTES", block)
        _check_readers(tmp_path_factory.mktemp("reader"), data, chunk)


def _check_readers(tmp_path, data: bytes, chunk: int) -> None:
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    rows, bad_line = expected_rows(data)

    # ingest: the oracle's rows in batches of ``chunk``, then its error.
    batches = []
    outcome = _outcome(lambda: batches.extend(iter_edge_list_chunks(path, chunk)))
    full = len(rows) // chunk * chunk if bad_line is not None else len(rows)
    expected_batches = [rows[start : start + chunk] for start in range(0, full, chunk)]
    got = [
        list(zip(s.tolist(), t.tolist(), (w if w is not None else np.ones_like(s)).tolist()))
        for s, t, w in batches
    ]
    assert got == expected_batches
    assert all((w is None) == all(row[2] == 1 for row in batch)
               for (_, _, w), batch in zip(batches, expected_batches))
    assert outcome == (("ok", None) if bad_line is None else (GraphFormatError, bad_line))

    # partition: eq. (3) directed pairs.
    expected = _expected(tmp_path, data, lambda p: to_weighted_csr(read_directed_edge_list(p)))
    assert _outcome(lambda: _csr_arrays(load_directed_edge_list(path))) == expected

    # serve: undirected, first weight kept.
    expected = _expected(
        tmp_path, data, lambda p: CSRGraph.from_undirected(read_undirected_edge_list(p))
    )
    assert _outcome(lambda: _csr_arrays(load_undirected_edge_list(path))) == expected


_VALID_LINE = st.builds(
    lambda u, v, w, sep: sep.join(map(str, (u, v) if w is None else (u, v, w))).encode(),
    st.integers(0, 15),
    st.integers(0, 15),
    st.one_of(st.none(), st.integers(1, 4)),
    _BLANKS,
)


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(st.one_of(_VALID_LINE, _VALID_LINE, st.just(b"# c")), max_size=40),
    block=_BLOCK_BYTES,
)
def test_ingested_store_matches_oracle_rows(tmp_path_factory, lines, block):
    tmp_path = tmp_path_factory.mktemp("ingest")
    data = b"\n".join(lines)
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    rows, bad_line = expected_rows(data)
    assert bad_line is None
    array = np.array(rows, dtype=np.int64).reshape(-1, 3)
    n = int(array[:, :2].max()) + 1 if rows else 0
    expected = CSRGraph.from_edge_list(array[:, :2], n, array[:, 2])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_io, "_BLOCK_BYTES", block)
        ingest_edge_list(path, tmp_path / "store", chunk_edges=3, run_half_edges=5)
    with open_store(tmp_path / "store") as store:
        for name in ("indptr", "indices", "weights"):
            assert np.array_equal(getattr(store, name), getattr(expected, name)), name


@pytest.mark.parametrize(
    ("content", "line"),
    [
        (b"0 1\n1 2 # trailing\n", 2),
        (b"0 1\n9223372036854775808 1\n", 2),
        (b"0 1\r\n1 2\r\n-9223372036854775809 0\r\n", 3),
        (b"0 1\r1 2\r\xff\xfe 1\r", 3),
        (b"# header\n0 1\n1 2 3 4", 3),
    ],
)
@pytest.mark.parametrize("block", [1, 2, 3, 4, 1 << 22])
def test_bad_lines_are_named_by_every_reader(tmp_path, monkeypatch, content, line, block):
    """Every read boundary, including one between ``\\r`` and ``\\n``."""
    monkeypatch.setattr(graph_io, "_BLOCK_BYTES", block)
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    for read in (
        lambda: list(iter_edge_list_chunks(path)),
        lambda: load_directed_edge_list(path),
        lambda: load_undirected_edge_list(path),
    ):
        with pytest.raises(GraphFormatError, match=f"^line {line}:"):
            read()


def test_slow_digits_are_read_like_int(tmp_path):
    """``+``, ``_`` and non-ASCII digits take the per-line rule; int() decides."""
    path = tmp_path / "digits.txt"
    path.write_text("+1 1_0\n٣ 0007\t2\n", encoding="utf-8")
    (sources, targets, weights), = iter_edge_list_chunks(path)
    assert sources.tolist() == [1, 3]
    assert targets.tolist() == [10, 7]
    assert weights.tolist() == [1, 2]
