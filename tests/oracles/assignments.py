"""Dictionary assignments for the suites, and the per-line partitioning reader.

The library takes an assignment as a dense label array aligned with a
graph, or as a sorted ``(ids, labels)`` pair
(:data:`repro.core.incremental.Assignment`).  The suites write many
assignments as ``{vertex: partition}`` dictionaries: :func:`as_pair`
turns one into the pair, :func:`result_pair` turns a run's
``(original_ids, labels)`` into it, and :func:`as_mapping` turns a run
back into a dictionary.

:func:`read_partitioning` is the per-line reader that
:func:`repro.graph.io.read_partitioning_array` replaced: one text-mode
read, one ``str.split`` per line into a dictionary.
:func:`expected_assignment` extends its rule with the checks the array
reader adds: a line that is not strict UTF-8, an id outside
``[0, 2**63)`` or a partition outside int64 is a
:class:`~repro.errors.GraphFormatError` for that line.  (The text-mode
reader raised ``UnicodeDecodeError`` without a line number, and accepted
any Python ``int`` until numpy overflowed.)
"""

from __future__ import annotations

import os
from collections.abc import Mapping

import numpy as np

from repro.errors import GraphFormatError

_INT64 = range(-(1 << 63), 1 << 63)


def as_pair(mapping: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(ids, labels)`` pair of a ``{vertex: partition}`` mapping."""
    ids = np.asarray(sorted(mapping), dtype=np.int64)
    labels = np.asarray([mapping[v] for v in ids.tolist()], dtype=np.int64)
    return ids, labels


def result_pair(result) -> tuple[np.ndarray, np.ndarray]:
    """A run's ``(original_ids, labels)`` sorted by id."""
    order = np.argsort(result.original_ids, kind="stable")
    return result.original_ids[order], result.labels[order]


def as_mapping(result) -> dict[int, int]:
    """A run's ``{original id: label}`` dictionary."""
    return dict(zip(result.original_ids.tolist(), result.labels.tolist()))


def _parse_partition_line(line: str, line_number: int) -> tuple[int, int] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2:
        raise GraphFormatError(
            f"line {line_number}: expected 2 fields, got {len(parts)}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(f"line {line_number}: non-integer field") from exc


def read_partitioning(path: str | os.PathLike) -> dict[int, int]:
    """Read a partitioning file written by :func:`~repro.graph.io.write_partitioning`."""
    assignment: dict[int, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            parsed = _parse_partition_line(line, line_number)
            if parsed is not None:
                assignment[parsed[0]] = parsed[1]
    return assignment


def expected_assignment(data: bytes) -> tuple[dict[int, int], int | None]:
    """The mapping of a file's bytes, line by line, and its first bad line.

    Returns the mapping of the lines before the first bad line and that
    line's number (``None`` when every line parses).  Lines end at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a text-mode read.
    """
    assignment: dict[int, int] = {}
    for line_number, raw in enumerate(data.splitlines(), start=1):
        try:
            parsed = _parse_partition_line(raw.decode("utf-8"), line_number)
        except (UnicodeDecodeError, GraphFormatError):
            return assignment, line_number
        if parsed is None:
            continue
        vertex, label = parsed
        if vertex < 0 or vertex not in _INT64 or label not in _INT64:
            return assignment, line_number
        assignment[vertex] = label
    return assignment, None
