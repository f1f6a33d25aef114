"""The array partitioning reader against the per-line dictionary oracle.

Hypothesis writes random partitioning files of plain ``vertex partition``
rows with a per-file share of exotic lines: comments (whole-line and
inline), blank lines, CRLF and lone CR line ends, tabs, 1/3-field rows,
``+``/``_``/non-ASCII digits, ids around ``2**63``, negative ids,
repeated ids, bad UTF-8 and a missing final newline.  Each file is read
with the block size shrunk to a few bytes, or left large enough to hold
the file.  :func:`~repro.graph.io.read_partitioning_array` must return
:func:`oracles.assignments.expected_assignment`'s mapping as sorted
``(ids, labels)`` arrays (a repeated id keeps its last label), or raise
:class:`~repro.errors.GraphFormatError` naming the oracle's first bad
line.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.assignments import as_pair, expected_assignment, read_partitioning
from repro.errors import GraphFormatError
from repro.graph import io as graph_io
from repro.graph.io import read_partitioning_array, write_partitioning_array

_ARABIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"


def _digits(value: int, style: str) -> str:
    text = str(value)
    if style == "plus" and value >= 0:
        return "+" + text
    if style == "underscore" and abs(value) >= 10:
        return text[:-1] + "_" + text[-1]
    if style == "arabic":
        return "".join(_ARABIC_DIGITS[int(c)] if c.isdigit() else c for c in text)
    return text


_STYLES = st.sampled_from(["plain"] * 12 + ["plus", "underscore", "arabic"])
_VALUES = st.one_of(
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(-2, -1),
    st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, -(2**63), -(2**63) - 1]),
)
_FIELD = st.one_of(
    st.builds(_digits, _VALUES, _STYLES),
    st.builds(_digits, _VALUES, _STYLES),
    st.builds(_digits, _VALUES, _STYLES),
    st.sampled_from(["x", "1.5", "0x1", "--1"]),
)
_BLANKS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def _exotic_line(draw) -> bytes:
    count = draw(st.sampled_from([2] * 8 + [1, 3]))
    text = draw(_BLANKS).join(draw(_FIELD) for _ in range(count))
    if draw(st.integers(0, 9)) == 0:
        text = draw(_BLANKS) + text
    if draw(st.integers(0, 9)) == 0:
        text += draw(_BLANKS)
    if draw(st.integers(0, 19)) == 0:
        text += " # inline"
    return text.encode("utf-8")


_ODD_LINE = st.one_of(
    _exotic_line(),
    _exotic_line(),
    st.sampled_from([b"\t \t", b"  # 1 2", "# été 12".encode()]),
    st.sampled_from([b"1 2\xff", b"# bad \xc3", b"\xe2\x82 3", b"5 6\r7 8"]),
)


@st.composite
def _partition_file(draw) -> bytes:
    """Mostly plain rows (so whole blocks take the numpy read), with a
    per-file share of exotic lines."""
    exotic = draw(st.sampled_from([0, 0, 1, 4]))  # exotic lines per 12
    # Plain rows are ``vertex partition``; some files give them a third field.
    columns = draw(st.sampled_from([(2,), (2,), (3,), (2, 3)]))
    end = draw(st.sampled_from([b"\n", b"\n", b"\r\n"]))
    data = b""
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 11))
        if kind < exotic:
            line = draw(_ODD_LINE)
        elif kind == 11:
            line = draw(st.sampled_from([b"", b" ", b"# partitioning", b"\t#x y z"]))
        else:
            fields = [draw(st.integers(0, 12)), draw(st.integers(0, 5))]
            if draw(st.sampled_from(columns)) == 3:
                fields.append(draw(st.integers(0, 5)))
            line = draw(_BLANKS).join(map(str, fields)).encode()
        data += line + end
    if data and draw(st.booleans()):
        data = data[: -len(end)]  # no final line end
    return data


def _outcome(path):
    try:
        ids, labels = read_partitioning_array(path)
    except GraphFormatError as error:
        match = re.match(r"line (\d+):", str(error))
        assert match, str(error)
        return GraphFormatError, int(match.group(1))
    assert ids.dtype == labels.dtype == np.int64
    return "ok", (ids.tolist(), labels.tolist())


@settings(max_examples=400, deadline=None)
@given(data=_partition_file(), block=st.sampled_from([1, 2, 3, 5, 8, 13, 64, 1 << 22]))
def test_reader_matches_the_per_line_oracle(tmp_path_factory, data, block):
    path = tmp_path_factory.mktemp("partitioning") / "assignment.txt"
    path.write_bytes(data)
    mapping, bad_line = expected_assignment(data)
    if bad_line is None:
        ids, labels = as_pair(mapping)
        expected = ("ok", (ids.tolist(), labels.tolist()))
        # The text-mode reader agrees wherever it does not raise.
        assert read_partitioning(path) == mapping
    else:
        expected = (GraphFormatError, bad_line)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_io, "_BLOCK_BYTES", block)
        assert _outcome(path) == expected


def test_repeated_ids_keep_their_last_label(tmp_path):
    path = tmp_path / "assignment.txt"
    path.write_text("# partitioning\n5 1\n2 0\n5 3\n2 2\n9 1\n5 0\n")
    ids, labels = read_partitioning_array(path)
    assert (ids.tolist(), labels.tolist()) == ([2, 5, 9], [2, 0, 1])


def test_round_trip_with_the_array_writer(tmp_path):
    path = tmp_path / "assignment.txt"
    ids = np.array([40, 3, 2**63 - 1, 0], dtype=np.int64)
    labels = np.array([1, 0, 2, 1], dtype=np.int64)
    write_partitioning_array(ids, labels, path)
    got_ids, got_labels = read_partitioning_array(path)
    order = np.argsort(ids)
    assert np.array_equal(got_ids, ids[order])
    assert np.array_equal(got_labels, labels[order])
