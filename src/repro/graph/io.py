"""Graph and partitioning I/O.

Spinner's Giraph implementation reads edge-list inputs from HDFS and
writes the partitioning as ``(vertex id, label)`` pairs.  This module
implements the equivalent plain-file formats:

* *edge list*: one ``source target`` (optionally ``source target weight``)
  pair per line, ``#`` comments allowed;
* *partitioning file*: one ``vertex_id partition`` pair per line.

Both are read by one block reader: complete lines a few MiB at a time,
each block decoded as strict UTF-8 and converted by one
:func:`numpy.loadtxt` call.  A block the fast path cannot vouch for
(inline ``#``, signs, non-ASCII digits, mixed column counts, values past
int64, bad UTF-8) is re-parsed line by line, which accepts exactly the
same input and reports a malformed line as
:class:`~repro.errors.GraphFormatError` with its line number.
:func:`read_partitioning_array` reads a partitioning file into the
sorted ``(ids, labels)`` pair the library takes as an assignment.  The
rows of an edge list feed three readings of a file, one per command:

* :func:`load_directed_edge_list` (``partition``/``compare``): directed
  pairs, weighted by eq. (3) into CSR arrays;
* :func:`load_undirected_edge_list` (``serve``): undirected edges,
  self-loops dropped, a repeated pair keeps its first weight;
* :func:`ingest_edge_list` / :func:`ingest_edge_chunks` (``ingest``): an
  undirected multigraph through a chunked external sort into an
  out-of-core store for :mod:`repro.graph.mmap_store`, with peak RSS
  bounded by the run size regardless of the input size.

All writers are *atomic*: content goes to a temporary file in the target
directory which is renamed over the destination with :func:`os.replace`
only once fully written, so a crash mid-write can never leave a truncated
partitioning, checkpoint snapshot or ``BENCH_*.json`` behind — the
destination either keeps its previous content or holds the complete new
one.  :func:`atomic_open` / :func:`atomic_write_text` expose the same
guarantee to the checkpoint subsystem (:mod:`repro.pregel.checkpoint`)
and the benchmark emitters.
"""

from __future__ import annotations

import io
import os
import re
import shutil
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from typing import IO

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.conversion import directed_to_csr
from repro.graph.csr import CSRGraph, build_csr_arrays

#: Edges parsed per text batch by the streaming readers/ingesters.
DEFAULT_PARSE_CHUNK_EDGES = 1 << 18
#: Half-edges per sorted run (and per merge range) of the external sort.
DEFAULT_RUN_HALF_EDGES = 1 << 23
#: Without a declared vertex count, an ingested store's dense id space is
#: ``[0, max id + 1)``, and its per-vertex arrays are sized by it.  The
#: ids of ``m`` edges touch at most ``2 m`` vertices, so the space may
#: hold at most ``2 m + ISOLATED_ID_ALLOWANCE`` ids: room for isolated
#: vertices, while a stray id like ``10**12`` is rejected before any
#: array is sized by it.
ISOLATED_ID_ALLOWANCE = 1 << 24
#: Bytes of RAM an ingest holds per vertex of its id space at its peak:
#: degree, weighted-degree and offset arrays, plus one run's offsets and
#: source counts.
INGEST_BYTES_PER_VERTEX = 40

#: Spool/run/shard array dtype: little-endian int64 (the RAM tier's dtype).
_DTYPE = np.dtype("<i8")


@contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w") -> Iterator[IO]:
    """Open ``path`` for atomic writing (write-to-temp + ``os.replace``).

    Yields a handle onto a temporary file next to ``path`` (same
    filesystem, so the final rename is atomic).  On clean exit the
    temporary file is flushed, synced and renamed over ``path``; on an
    exception it is removed and ``path`` is left untouched.  ``mode``
    must be a write mode (``"w"`` or ``"wb"``).
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open requires mode 'w' or 'wb', got {mode!r}")
    destination = os.fspath(path)
    temporary = f"{destination}.tmp.{os.getpid()}"
    encoding = "utf-8" if mode == "w" else None
    handle = open(temporary, mode, encoding=encoding)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    except BaseException:
        handle.close()
        if os.path.exists(temporary):
            os.remove(temporary)
        raise
    handle.close()
    os.replace(temporary, destination)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Atomically replace ``path``'s content with ``text`` (UTF-8)."""
    with atomic_open(path, "w") as handle:
        handle.write(text)


def write_partitioning(
    assignment: Mapping[int, int], path: str | os.PathLike
) -> None:
    """Write a ``vertex_id partition`` file, sorted by id (atomically)."""
    with atomic_open(path, "w") as handle:
        handle.write("# partitioning: vertex_id partition\n")
        for vertex_id in sorted(assignment):
            handle.write(f"{vertex_id} {assignment[vertex_id]}\n")


# ----------------------------------------------------------------------
# edge-list reader (block-vectorized, with a per-line rescan)
# ----------------------------------------------------------------------
EdgeChunk = tuple[np.ndarray, np.ndarray, "np.ndarray | None"]

#: Bytes read per block; a block always ends at a line end, so a line
#: longer than this extends its block.
_BLOCK_BYTES = 1 << 22
#: A comment line: optional blanks, then ``#`` first.
_COMMENT_LINE = re.compile(rb"^[ \t]*#[^\n]*", re.MULTILINE)
#: The only bytes a block may hold, once its comment lines are removed,
#: for :func:`numpy.loadtxt` to read it.
_PLAIN_BYTES = b"0123456789 \t\n"
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _read_blocks(path: str | os.PathLike) -> Iterator[tuple[bytes, int]]:
    """Yield ``(block, first line number)`` of complete lines.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a text-mode
    read; a block is cut after its last line end, so ``\\r\\n`` is never
    split.  The last block may lack a final line end.
    """
    line_number = 1
    carry = b""
    with open(path, "rb") as handle:
        while True:
            data = handle.read(_BLOCK_BYTES)
            if not data:
                break
            data = carry + data
            # A trailing "\r" may be the first half of "\r\n": keep it back.
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            block, carry = data[:cut], data[cut:]
            if block:
                yield block, line_number
                line_number += block.count(b"\n")
                if b"\r" in block:
                    line_number += block.count(b"\r") - block.count(b"\r\n")
    if carry:
        yield carry, line_number


def _plain_rows(block: bytes, width: int) -> np.ndarray | None:
    """The block's ``(m, width)`` rows in one numpy read, or ``None`` to rescan.

    Only a block of strict UTF-8 whose non-comment lines hold nothing but
    ASCII digits and blanks, in a uniform ``width`` columns that fit int64
    (or 2 columns, padded with weight 1, for an edge list's ``width`` 3),
    is read here; anything else (inline ``#``, signs, ``_``, non-ASCII
    digits, lone ``\\r``, mixed column counts, overflow) goes to the
    per-line rule, which decides it.
    """
    try:
        block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
        if b"\r" in block:
            return None
    if b"#" in block:
        block = _COMMENT_LINE.sub(b"", block)
    if block.translate(None, _PLAIN_BYTES):
        return None
    if not block.strip():
        return np.empty((0, width), dtype=np.int64)
    try:
        table = np.loadtxt(
            io.StringIO(block.decode("ascii")), dtype=np.int64, comments=None, ndmin=2
        )
    except ValueError:
        return None
    if table.shape[1] == width:
        return table
    if table.shape[1] != 2 or width != 3:
        return None
    rows = np.ones((table.shape[0], 3), dtype=np.int64)
    rows[:, :2] = table
    return rows


def _parse_line(
    line: str, line_number: int, counts: tuple[int, ...] = (2, 3)
) -> tuple[int, ...] | None:
    """The per-line rule: ``source target [weight]``, ``#`` comments.

    A line holds one of ``counts`` int64 fields; a short row is padded
    with weight 1 to ``counts[-1]`` fields.
    """
    fields = line.split()
    if not fields or fields[0].startswith("#"):
        return None
    if len(fields) not in counts:
        expected = " or ".join(map(str, counts))
        raise GraphFormatError(
            f"line {line_number}: expected {expected} fields, got {len(fields)}"
        )
    try:
        values = [int(field) for field in fields]
    except ValueError as exc:
        raise GraphFormatError(f"line {line_number}: non-integer field") from exc
    if not all(_INT64_MIN <= value <= _INT64_MAX for value in values):
        raise GraphFormatError(f"line {line_number}: integer field outside int64")
    return (*values, *[1] * (counts[-1] - len(values)))


def _parse_partition_line(line: str, line_number: int) -> tuple[int, ...] | None:
    """The per-line rule of a partitioning file: ``vertex_id partition``."""
    row = _parse_line(line, line_number, (2,))
    if row is not None and row[0] < 0:
        raise GraphFormatError(f"line {line_number}: vertex id outside [0, 2**63)")
    return row


def _scanned_rows(
    block: bytes, first_line: int, parse_line: Callable, width: int
) -> tuple[np.ndarray, GraphFormatError | None]:
    """Rows of ``block`` by the per-line rule, up to its first bad line.

    Returns the rows before the first malformed line and that line's
    error (``None`` when every line parses).
    """
    rows: list[tuple[int, ...]] = []
    error = None
    for offset, raw in enumerate(block.splitlines()):
        line_number = first_line + offset
        try:
            parsed = parse_line(raw.decode("utf-8"), line_number)
        except UnicodeDecodeError:
            error = GraphFormatError(f"line {line_number}: invalid UTF-8")
            break
        except GraphFormatError as exc:
            error = exc
            break
        if parsed is not None:
            rows.append(parsed)
    return np.array(rows, dtype=np.int64).reshape(-1, width), error


def _iter_rows(
    path: str | os.PathLike, parse_line: Callable = _parse_line, width: int = 3
) -> Iterator[np.ndarray]:
    """Yield the file's rows, one block at a time.

    By default the rows are an edge list's ``(source, target, weight)``;
    ``parse_line`` and ``width`` give another line format.  A malformed
    line raises :class:`~repro.errors.GraphFormatError` with its line
    number, once the rows before it have been yielded, so a consumer sees
    the same prefix the per-line readers did.
    """
    for block, first_line in _read_blocks(path):
        rows = _plain_rows(block, width)
        if rows is not None:
            yield rows
            continue
        rows, error = _scanned_rows(block, first_line, parse_line, width)
        yield rows
        if error is not None:
            raise error


def read_partitioning_array(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Read a partitioning file into an ``(ids, labels)`` pair sorted by id.

    Comments and blank lines are skipped and a repeated id keeps its last
    label.  A malformed line (not two integers, an id outside
    ``[0, 2**63)``, a partition outside int64, bad UTF-8) raises
    :class:`~repro.errors.GraphFormatError` naming it.
    """
    rows = np.concatenate(
        [np.empty((0, 2), dtype=np.int64), *_iter_rows(path, _parse_partition_line, 2)]
    )
    order = np.argsort(rows[:, 0], kind="stable")
    ids, labels = rows[order, 0], rows[order, 1]
    last = np.ones(ids.shape[0], dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=last[:-1])
    return ids[last], labels[last]


def iter_edge_list_chunks(
    path: str | os.PathLike, chunk_edges: int = DEFAULT_PARSE_CHUNK_EDGES
) -> Iterator[EdgeChunk]:
    """Parse an edge-list file into ``(sources, targets, weights)`` batches.

    Every batch but the last holds exactly ``chunk_edges`` edges.
    ``weights`` is ``None`` for a batch in which every edge has the
    default weight 1.  Comments and blank lines are skipped; a malformed
    line raises :class:`~repro.errors.GraphFormatError` with its line
    number once the full batches before it are yielded.
    """
    size = max(1, chunk_edges)
    pending: list[np.ndarray] = []
    count = 0
    for rows in _iter_rows(path):
        pending.append(rows)
        count += rows.shape[0]
        while count >= size:
            rows = np.concatenate(pending) if len(pending) > 1 else pending[0]
            yield _edge_chunk(rows[:size])
            pending = [rows[size:]]
            count -= size
    if count:
        yield _edge_chunk(np.concatenate(pending))


def _edge_chunk(rows: np.ndarray) -> EdgeChunk:
    weights = np.ascontiguousarray(rows[:, 2])
    return (
        np.ascontiguousarray(rows[:, 0]),
        np.ascontiguousarray(rows[:, 1]),
        None if bool((weights == 1).all()) else weights,
    )


def _build_from_file(
    path: str | os.PathLike, build: Callable[[np.ndarray], CSRGraph]
) -> CSRGraph:
    """``build`` over every row of the file, with errors in line order.

    When a line is malformed, the rows before it are built first, so an
    error ``build`` raises for an earlier line wins, as it did when the
    per-line readers built a graph edge by edge.
    """
    parts = [np.empty((0, 3), dtype=np.int64)]
    try:
        for rows in _iter_rows(path):
            parts.append(rows)
    except GraphFormatError:
        build(np.concatenate(parts))
        raise
    return build(np.concatenate(parts))


def _first_positions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values, each one's first position, and each entry's rank.

    Returns ``(distinct, first, rank)``: ``distinct`` ascending, ``first[i]``
    the lowest index holding ``distinct[i]``, and ``rank`` with
    ``distinct[rank] == values``.  One argsort plus an adjacent-difference
    mask; no ``np.unique``.
    """
    if values.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    order = np.argsort(values)
    ordered = values[order]
    starts = np.ones(ordered.shape[0], dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    rank = np.empty(values.shape[0], dtype=np.int64)
    rank[order] = np.cumsum(starts) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    return ordered[starts], first, rank


def load_directed_edge_list(path: str | os.PathLike) -> CSRGraph:
    """Read an edge list as directed pairs into Spinner's weighted CSR graph.

    This is the reading of ``partition``/``compare --edge-list``: each
    row is a directed edge ``source -> target``; the weight column is
    checked but ignored and parallel edges collapse.  Every endpoint is a
    vertex (a self-loop's too); self-loops carry no edge.  The pair
    ``{u, v}`` gets the eq. (3) weight: 2 when both directions occur, else
    1.  Dense ids follow ascending original id, and the arrays equal
    :func:`~repro.graph.conversion.to_weighted_csr` of the same edges.
    """
    return _build_from_file(path, _directed_csr)


def _directed_csr(rows: np.ndarray) -> CSRGraph:
    ends = rows[:, :2].ravel()
    negative = ends < 0
    if negative.any():
        raise GraphError(
            f"vertex ids must be non-negative, got {ends[np.argmax(negative)]}"
        )
    ids, _, rank = _first_positions(ends)
    n = ids.shape[0]
    pairs = _first_positions(rank[0::2] * n + rank[1::2])[0]
    return directed_to_csr(ids, pairs // n, pairs % n)


def load_undirected_edge_list(path: str | os.PathLike) -> CSRGraph:
    """Read an edge list as undirected weighted edges into a CSR graph.

    This is the reading of ``serve --edge-list``: each row is the
    undirected edge ``{source, target}`` with its weight (default 1);
    self-loops are dropped, endpoints included, and a repeated pair keeps
    its first weight.  The arrays equal those of
    :meth:`CSRGraph.from_undirected` over the graph built edge by edge in
    file order, half-edge order included.
    """
    return _build_from_file(path, _undirected_csr)


def _undirected_csr(rows: np.ndarray) -> CSRGraph:
    rows = rows[rows[:, 0] != rows[:, 1]]
    ids, first_seen, rank = _first_positions(rows[:, :2].ravel())
    n = ids.shape[0]
    low = np.minimum(rank[0::2], rank[1::2])
    high = np.maximum(rank[0::2], rank[1::2])
    # The rows that add an edge (each pair's first), in line order.
    edges = np.sort(_first_positions(low * n + high)[1])
    added = rows[edges]
    bad = (added[:, 2] <= 0) | (added[:, 0] < 0) | (added[:, 1] < 0)
    if bad.any():
        source, target, weight = added[np.argmax(bad)].tolist()
        if weight <= 0:
            raise GraphError(f"edge weights must be positive, got {weight}")
        raise GraphError(
            f"vertex ids must be non-negative, got {source if source < 0 else target}"
        )
    # The order a dictionary graph lists its edges in: by when the lower
    # endpoint first appeared, then by when the edge did.
    edges = edges[np.argsort(first_seen[low[edges]], kind="stable")]
    u, v, w = low[edges], high[edges], rows[edges, 2]
    indptr, indices, weights = build_csr_arrays(
        np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]), n
    )
    return CSRGraph(indptr, indices, weights, ids)


# ----------------------------------------------------------------------
# streaming CSR ingestion (chunked external sort)
# ----------------------------------------------------------------------


def write_partitioning_array(
    original_ids: np.ndarray, labels: np.ndarray, path: str | os.PathLike
) -> None:
    """Write a ``vertex_id partition`` file from parallel arrays (atomically).

    The array twin of :func:`write_partitioning`: rows are emitted in
    ascending original-id order, streamed in batches so no per-vertex
    dictionary is materialized.
    """
    ids = np.asarray(original_ids, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if ids.shape != labs.shape:
        raise GraphError("original_ids and labels must align")
    order = np.argsort(ids, kind="stable")
    with atomic_open(path, "w") as handle:
        handle.write("# partitioning: vertex_id partition\n")
        for start in range(0, ids.shape[0], DEFAULT_PARSE_CHUNK_EDGES):
            stop = min(start + DEFAULT_PARSE_CHUNK_EDGES, ids.shape[0])
            block = order[start:stop]
            handle.writelines(
                f"{vertex} {label}\n"
                for vertex, label in zip(ids[block].tolist(), labs[block].tolist())
            )


def _validate_ids(
    sources: np.ndarray, targets: np.ndarray, num_vertices: int | None, edges_read: int
) -> None:
    """Check one chunk's ids; ``edges_read`` counts the edges so far, chunk included."""
    if sources.size == 0:
        return
    low = int(min(sources.min(), targets.min()))
    high = int(max(sources.max(), targets.max()))
    if low < 0:
        raise GraphError(f"negative vertex id {low} in edge input")
    if num_vertices is not None:
        if high >= num_vertices:
            raise GraphError(
                f"vertex id {high} outside the declared range [0, {num_vertices})"
            )
    elif high >= 2 * edges_read + ISOLATED_ID_ALLOWANCE:
        raise GraphFormatError(
            f"vertex id {high} too large for a dense id space after {edges_read} "
            f"edges (ids must stay below 2 x edges + {ISOLATED_ID_ALLOWANCE}); "
            "declare the vertex count to allow it"
        )


def _check_declared_vertices(num_vertices: int) -> None:
    """Reject a declared vertex count whose per-vertex arrays exceed RAM."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return  # no way to tell on this platform
    needed = num_vertices * INGEST_BYTES_PER_VERTEX
    if needed > memory:
        raise GraphError(
            f"declared vertex count {num_vertices} needs {needed / 2**30:.1f} GiB "
            f"for its per-vertex arrays, more than this machine's "
            f"{memory / 2**30:.1f} GiB of memory"
        )


class _GrowingCounts:
    """Pair of per-vertex int64 accumulators that grow with the max id seen."""

    def __init__(self) -> None:
        self.half_edges = np.zeros(0, dtype=np.int64)
        self.weighted = np.zeros(0, dtype=np.int64)

    def _grow(self, size: int) -> None:
        if size <= self.half_edges.shape[0]:
            return
        capacity = max(size, 2 * self.half_edges.shape[0], 1024)
        for name in ("half_edges", "weighted"):
            grown = np.zeros(capacity, dtype=np.int64)
            grown[: getattr(self, name).shape[0]] = getattr(self, name)
            setattr(self, name, grown)

    def add(self, u: np.ndarray, v: np.ndarray, w: np.ndarray | None) -> None:
        """Fold one forward-edge chunk into the degree accumulators."""
        if u.size == 0:
            return
        size = int(max(u.max(), v.max())) + 1
        self._grow(size)
        length = self.half_edges.shape[0]
        counts = np.bincount(u, minlength=length) + np.bincount(v, minlength=length)
        self.half_edges += counts
        if w is None:
            self.weighted += counts
        else:
            weighted = np.bincount(u, weights=w, minlength=length) + np.bincount(
                v, weights=w, minlength=length
            )
            self.weighted += weighted.astype(np.int64)


class _Spool:
    """Sequential binary spool of the forward edges (u, v and lazy w files).

    The weight file is only created when a non-unit weight first appears;
    the edges spooled before that point are backfilled with ones, so unit
    graphs never pay for a weight spool at all.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.u_path = os.path.join(directory, "spool_u.bin")
        self.v_path = os.path.join(directory, "spool_v.bin")
        self.w_path = os.path.join(directory, "spool_w.bin")
        self._u = open(self.u_path, "wb")
        self._v = open(self.v_path, "wb")
        self._w: IO | None = None
        self.num_edges = 0

    def _ensure_weights(self) -> IO:
        if self._w is None:
            self._w = open(self.w_path, "wb")
            ones = np.ones(min(self.num_edges, DEFAULT_PARSE_CHUNK_EDGES), dtype=_DTYPE)
            remaining = self.num_edges
            while remaining > 0:
                block = ones[: min(remaining, ones.shape[0])]
                self._w.write(block.tobytes())
                remaining -= block.shape[0]
        return self._w

    def append(self, u: np.ndarray, v: np.ndarray, w: np.ndarray | None) -> None:
        """Append one forward-edge chunk to the spool files."""
        self._u.write(np.ascontiguousarray(u, dtype=_DTYPE).tobytes())
        self._v.write(np.ascontiguousarray(v, dtype=_DTYPE).tobytes())
        if w is not None and not (w.size == 0 or (w.min() == 1 and w.max() == 1)):
            self._ensure_weights().write(np.ascontiguousarray(w, dtype=_DTYPE).tobytes())
        elif self._w is not None:
            self._w.write(np.ones(u.shape[0], dtype=_DTYPE).tobytes())
        self.num_edges += int(u.shape[0])

    def finish(self) -> bool:
        """Flush and close the spool; return whether weights were spooled."""
        self._u.close()
        self._v.close()
        if self._w is not None:
            self._w.close()
            return True
        return False


def _read_slice(handle: IO, start: int, count: int) -> np.ndarray:
    """Read ``count`` int64 values at element offset ``start`` from a file."""
    handle.seek(start * _DTYPE.itemsize)
    data = handle.read(count * _DTYPE.itemsize)
    return np.frombuffer(data, dtype=_DTYPE).astype(np.int64, copy=False)


def ingest_edge_chunks(
    chunks: Iterable[EdgeChunk],
    store_dir: str | os.PathLike,
    *,
    num_vertices: int | None = None,
    run_half_edges: int = DEFAULT_RUN_HALF_EDGES,
) -> dict:
    """Build an out-of-core CSR store from a stream of edge-array chunks.

    ``chunks`` yields ``(sources, targets, weights)`` batches of forward
    edges (``weights`` may be ``None`` for all-unit batches); the result
    on disk is byte-identical to :func:`~repro.graph.mmap_store.save_csr`
    of ``CSRGraph.from_edge_list(edges, n, weights)`` built from the
    concatenated batches — the property the ingestion equivalence suite
    pins.  Peak RSS is bounded by ``run_half_edges`` (the unit of the
    external sort), not by the input size.

    The sort is the classic run/merge scheme, arranged so the half-edge
    order *within every adjacency list* matches the RAM tier's stable
    sort: all forward halves in arrival order, then all backward halves in
    arrival order.  Pass A spools the forward edges and accumulates the
    degree arrays; pass B cuts the spool into source-sorted runs (forward
    runs first, then backward); pass C merges the runs one vertex range at
    a time — concatenating run slices in run order and stable-sorting by
    source reproduces the arrival order exactly — and streams the final
    ``indices``/``weights`` shards out sequentially.

    Edge weights must be positive, and a declared ``num_vertices`` must
    leave its per-vertex arrays (:data:`INGEST_BYTES_PER_VERTEX` each) room
    in physical memory.  A failed ingest removes the store directory if it
    created it; a directory that existed keeps its files
    (bad input is rejected in pass A, before any shard is written).

    Returns the store's ``meta.json`` dictionary.
    """
    if run_half_edges < 1:
        raise GraphError(f"run_half_edges must be >= 1, got {run_half_edges}")
    if num_vertices is not None:
        _check_declared_vertices(num_vertices)
    destination = os.fspath(store_dir)
    created = not os.path.isdir(destination)
    os.makedirs(destination, exist_ok=True)
    workdir = os.path.join(destination, f".ingest-tmp.{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        meta = _ingest(chunks, destination, workdir, num_vertices, run_half_edges)
    except BaseException:
        if created:
            shutil.rmtree(destination, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return meta


def _ingest(
    chunks: Iterable[EdgeChunk],
    destination: str,
    workdir: str,
    num_vertices: int | None,
    run_half_edges: int,
) -> dict:
    from repro.graph import mmap_store

    # --- pass A: spool forward edges, accumulate degrees ---------------
    spool = _Spool(workdir)
    counts = _GrowingCounts()
    for u, v, w in chunks:
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        if w is not None:
            w = np.ascontiguousarray(w, dtype=np.int64)
            if w.shape != u.shape:
                raise GraphError("weights must align with edges")
        if u.shape != v.shape or u.ndim != 1:
            raise GraphError("edge chunks must be parallel 1-D arrays")
        _validate_ids(u, v, num_vertices, spool.num_edges + u.shape[0])
        if w is not None and w.size and w.min() <= 0:
            raise GraphError(f"edge weights must be positive, got {int(w.min())}")
        spool.append(u, v, w)
        counts.add(u, v, w)
    weighted_spool = spool.finish()
    max_seen = counts.half_edges.shape[0]
    while max_seen > 0 and counts.half_edges[max_seen - 1] == 0:
        max_seen -= 1
    n = num_vertices if num_vertices is not None else max_seen
    half_edges = 2 * spool.num_edges
    half_counts = np.zeros(n, dtype=np.int64)
    half_counts[:max_seen] = counts.half_edges[:max_seen]
    weighted_degrees = np.zeros(n, dtype=np.int64)
    weighted_degrees[:max_seen] = counts.weighted[:max_seen]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(half_counts, out=indptr[1:])

    # --- pass B: source-sorted runs (forward first, then backward) -----
    runs: list[tuple[str, str]] = []  # (data prefix, direction) in merge order
    run_edges = max(1, run_half_edges)
    for direction in ("fwd", "bwd"):
        with open(spool.u_path, "rb") as u_file, open(spool.v_path, "rb") as v_file:
            w_file = open(spool.w_path, "rb") if weighted_spool else None
            try:
                position = 0
                while position < spool.num_edges:
                    count = min(run_edges, spool.num_edges - position)
                    u = _read_slice(u_file, position, count)
                    v = _read_slice(v_file, position, count)
                    src, dst = (u, v) if direction == "fwd" else (v, u)
                    order = np.argsort(src, kind="stable")
                    prefix = os.path.join(workdir, f"run{len(runs)}")
                    src_sorted = src[order]
                    with open(prefix + ".dst.bin", "wb") as out:
                        out.write(dst[order].astype(_DTYPE, copy=False).tobytes())
                    if w_file is not None:
                        w = _read_slice(w_file, position, count)
                        with open(prefix + ".w.bin", "wb") as out:
                            out.write(w[order].astype(_DTYPE, copy=False).tobytes())
                    run_indptr = np.zeros(n + 1, dtype=np.int64)
                    np.cumsum(np.bincount(src_sorted, minlength=n), out=run_indptr[1:])
                    run_indptr.astype(_DTYPE, copy=False).tofile(prefix + ".indptr.bin")
                    runs.append((prefix, direction))
                    position += count
            finally:
                if w_file is not None:
                    w_file.close()

    # --- pass C: range merge into the final shards ----------------------
    unit_weights = not weighted_spool
    indices_path = os.path.join(destination, "indices.bin")
    weights_path = os.path.join(destination, "weights.bin")
    run_handles = [
        (
            open(prefix + ".indptr.bin", "rb"),
            open(prefix + ".dst.bin", "rb"),
            open(prefix + ".w.bin", "rb") if weighted_spool else None,
        )
        for prefix, _ in runs
    ]
    try:
        with atomic_open(indices_path, "wb") as indices_out:
            weights_ctx = (
                atomic_open(weights_path, "wb") if weighted_spool else _null_context()
            )
            with weights_ctx as weights_out:
                v0 = 0
                while v0 < n:
                    cutoff = indptr[v0] + run_half_edges
                    v1 = int(np.searchsorted(indptr, cutoff, side="right")) - 1
                    v1 = min(max(v1, v0 + 1), n)
                    src_parts: list[np.ndarray] = []
                    dst_parts: list[np.ndarray] = []
                    w_parts: list[np.ndarray] = []
                    for indptr_file, dst_file, w_file in run_handles:
                        bounds = _read_slice(indptr_file, v0, v1 - v0 + 1)
                        start, stop = int(bounds[0]), int(bounds[-1])
                        if stop == start:
                            continue
                        dst_parts.append(_read_slice(dst_file, start, stop - start))
                        src_parts.append(
                            np.repeat(
                                np.arange(v0, v1, dtype=np.int64), np.diff(bounds)
                            )
                        )
                        if w_file is not None:
                            w_parts.append(_read_slice(w_file, start, stop - start))
                    if dst_parts:
                        src_all = np.concatenate(src_parts)
                        order = np.argsort(src_all, kind="stable")
                        dst_all = np.concatenate(dst_parts)[order]
                        indices_out.write(dst_all.astype(_DTYPE, copy=False).tobytes())
                        if weights_out is not None:
                            w_all = np.concatenate(w_parts)[order]
                            weights_out.write(w_all.astype(_DTYPE, copy=False).tobytes())
                    v0 = v1
    finally:
        for handles in run_handles:
            for handle in handles:
                if handle is not None:
                    handle.close()
    if unit_weights and os.path.exists(weights_path):
        os.remove(weights_path)

    with atomic_open(os.path.join(destination, "indptr.bin"), "wb") as out:
        out.write(indptr.astype(_DTYPE, copy=False).tobytes())
    with atomic_open(os.path.join(destination, "degrees.bin"), "wb") as out:
        out.write(weighted_degrees.astype(_DTYPE, copy=False).tobytes())
    ids_path = os.path.join(destination, "ids.bin")
    if os.path.exists(ids_path):
        os.remove(ids_path)
    mmap_store.write_meta(
        destination,
        num_vertices=n,
        num_half_edges=half_edges,
        total_weight=int(weighted_degrees.sum()) // 2,
        unit_weights=unit_weights,
    )
    return mmap_store.read_meta(destination)


@contextmanager
def _null_context() -> Iterator[None]:
    """Context manager yielding ``None`` (stands in for a skipped file)."""
    yield None


def ingest_edge_list(
    path: str | os.PathLike,
    store_dir: str | os.PathLike,
    *,
    num_vertices: int | None = None,
    chunk_edges: int = DEFAULT_PARSE_CHUNK_EDGES,
    run_half_edges: int = DEFAULT_RUN_HALF_EDGES,
) -> dict:
    """Ingest an edge-list *file* into an out-of-core CSR store.

    Each row is one undirected edge of its weight; self-loops and repeated
    rows are kept (a multigraph).  Streaming end to end: the block reader
    hands on ``chunk_edges`` batches to :func:`ingest_edge_chunks`, so
    ingesting a file far larger than RAM needs only
    ``O(block + run_half_edges)`` memory.  Ingesting the same file twice
    produces byte-identical stores.  Returns the store's ``meta.json``
    dictionary.
    """
    return ingest_edge_chunks(
        iter_edge_list_chunks(path, chunk_edges),
        store_dir,
        num_vertices=num_vertices,
        run_half_edges=run_half_edges,
    )
