"""The per-line edge-list readers, reference for the block reader.

:mod:`repro.graph.io` reads edge lists a block at a time with numpy.
These are the readers it replaced: one ``str.split`` per line into a
dictionary graph (or, for ``ingest``, into rows).  Random files must give
the same graphs from both, or the same error for the same line.

:func:`expected_rows` extends :func:`_parse_edge_line` with the two rules
the block reader adds: a line that is not strict UTF-8, or that holds an
integer outside int64, is a :class:`~repro.errors.GraphFormatError` for
that line.  (The text-mode readers raised ``UnicodeDecodeError`` without
a line number, and accepted any Python ``int`` until numpy overflowed.)
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.digraph import DiGraph
from repro.graph.io import atomic_open
from repro.graph.undirected import UndirectedGraph

_INT64 = range(-(1 << 63), 1 << 63)


def _parse_edge_line(line: str, line_number: int) -> tuple[int, int, int] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) not in (2, 3):
        raise GraphFormatError(
            f"line {line_number}: expected 2 or 3 fields, got {len(parts)}"
        )
    try:
        source = int(parts[0])
        target = int(parts[1])
        weight = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise GraphFormatError(f"line {line_number}: non-integer field") from exc
    return source, target, weight


def read_directed_edge_list(path: str | os.PathLike) -> DiGraph:
    """Read a directed graph from an edge-list file."""
    graph = DiGraph()
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            parsed = _parse_edge_line(line, line_number)
            if parsed is None:
                continue
            source, target, _weight = parsed
            graph.add_edge(source, target)
    return graph


def read_undirected_edge_list(path: str | os.PathLike) -> UndirectedGraph:
    """Read a weighted undirected graph from an edge-list file."""
    graph = UndirectedGraph()
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            parsed = _parse_edge_line(line, line_number)
            if parsed is None:
                continue
            u, v, weight = parsed
            if u == v:
                continue
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, weight=weight)
    return graph


def read_edge_rows(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every row of a file as ``(sources, targets, weights)`` int64 arrays.

    The per-line loop ``ingest`` ran before the block reader: one text-mode
    read, one :func:`_parse_edge_line` per line into three lists, one
    array per list at the end.
    """
    sources: list[int] = []
    targets: list[int] = []
    weights: list[int] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            parsed = _parse_edge_line(line, line_number)
            if parsed is None:
                continue
            source, target, weight = parsed
            sources.append(source)
            targets.append(target)
            weights.append(weight)
    return (
        np.asarray(sources, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(weights, dtype=np.int64),
    )


def write_directed_edge_list(graph: DiGraph, path: str | os.PathLike) -> None:
    """Write a directed graph as a ``source target`` edge list (atomically)."""
    with atomic_open(path, "w") as handle:
        handle.write("# directed edge list: source target\n")
        for source, target in graph.edges():
            handle.write(f"{source} {target}\n")


def write_undirected_edge_list(graph: UndirectedGraph, path: str | os.PathLike) -> None:
    """Write an undirected graph as a ``u v weight`` edge list (atomically)."""
    with atomic_open(path, "w") as handle:
        handle.write("# undirected edge list: u v weight\n")
        for u, v, weight in graph.edges():
            handle.write(f"{u} {v} {weight}\n")


def expected_rows(data: bytes) -> tuple[list[tuple[int, int, int]], int | None]:
    """The ``(source, target, weight)`` rows of a file's bytes, line by line.

    Returns the rows before the first bad line and that line's number
    (``None`` when every line parses).  Lines end at ``\\n``, ``\\r\\n``
    or a lone ``\\r``, as in a text-mode read.
    """
    rows: list[tuple[int, int, int]] = []
    for line_number, raw in enumerate(data.splitlines(), start=1):
        try:
            parsed = _parse_edge_line(raw.decode("utf-8"), line_number)
        except (UnicodeDecodeError, GraphFormatError):
            return rows, line_number
        if parsed is None:
            continue
        if not all(value in _INT64 for value in parsed):
            return rows, line_number
        rows.append(parsed)
    return rows, None
