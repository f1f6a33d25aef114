"""Graph and partitioning I/O.

Spinner's Giraph implementation reads edge-list inputs from HDFS and
writes the partitioning as ``(vertex id, label)`` pairs.  This module
implements the equivalent plain-file formats:

* *edge list*: one ``source target`` (optionally ``source target weight``)
  pair per line, ``#`` comments allowed;
* *partitioning file*: one ``vertex_id partition`` pair per line.

Edge lists can be consumed two ways, both streaming (no function here
ever materializes the whole edge list as Python objects):

* :func:`read_directed_edge_list` / :func:`read_undirected_edge_list`
  build the dictionary graphs line by line;
* :func:`ingest_edge_list` / :func:`ingest_edge_chunks` run a chunked
  external sort and write an out-of-core store for
  :mod:`repro.graph.mmap_store`, with peak RSS bounded by the run size
  regardless of the input size.

All writers are *atomic*: content goes to a temporary file in the target
directory which is renamed over the destination with :func:`os.replace`
only once fully written, so a crash mid-write can never leave a truncated
edge list, partitioning, checkpoint snapshot or ``BENCH_*.json`` behind —
the destination either keeps its previous content or holds the complete
new one.  :func:`atomic_open` / :func:`atomic_write_text` expose the
same guarantee to the checkpoint subsystem (:mod:`repro.pregel.checkpoint`) and the benchmark emitters.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from typing import IO

import numpy as np

from repro.errors import GraphError, GraphFormatError
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph

#: Edges parsed per text batch by the streaming readers/ingesters.
DEFAULT_PARSE_CHUNK_EDGES = 1 << 18
#: Half-edges per sorted run (and per merge range) of the external sort.
DEFAULT_RUN_HALF_EDGES = 1 << 23

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


def write_partitioning(
    assignment: Mapping[int, int], path: str | os.PathLike
) -> None:
    """Write a ``vertex_id partition`` file, sorted by id (atomically)."""
    with atomic_open(path, "w") as handle:
        handle.write("# partitioning: vertex_id partition\n")
        for vertex_id in sorted(assignment):
            handle.write(f"{vertex_id} {assignment[vertex_id]}\n")


def read_partitioning(path: str | os.PathLike) -> dict[int, int]:
    """Read a partitioning file written by :func:`write_partitioning`."""
    assignment: dict[int, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"line {line_number}: expected 2 fields, got {len(parts)}"
                )
            try:
                assignment[int(parts[0])] = int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {line_number}: non-integer field") from exc
    return assignment


# ----------------------------------------------------------------------
# streaming CSR ingestion (chunked external sort)
# ----------------------------------------------------------------------
EdgeChunk = tuple[np.ndarray, np.ndarray, "np.ndarray | None"]


def iter_edge_list_chunks(
    path: str | os.PathLike, chunk_edges: int = DEFAULT_PARSE_CHUNK_EDGES
) -> Iterator[EdgeChunk]:
    """Parse an edge-list file into ``(sources, targets, weights)`` batches.

    ``weights`` is ``None`` for a batch in which every edge has the
    default weight 1.  Comments and blank lines are skipped; malformed
    lines raise :class:`~repro.errors.GraphFormatError` with their line
    number, exactly like the dictionary readers.
    """
    sources: list[int] = []
    targets: list[int] = []
    weights: list[int] = []
    any_weight = False

    def _flush() -> EdgeChunk:
        nonlocal any_weight
        chunk = (
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.asarray(weights, dtype=np.int64) if any_weight else None,
        )
        sources.clear()
        targets.clear()
        weights.clear()
        any_weight = False
        return chunk

    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            parsed = _parse_edge_line(line, line_number)
            if parsed is None:
                continue
            source, target, weight = parsed
            sources.append(source)
            targets.append(target)
            weights.append(weight)
            if weight != 1:
                any_weight = True
            if len(sources) >= chunk_edges:
                yield _flush()
    if sources:
        yield _flush()


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
    sources: np.ndarray, targets: np.ndarray, num_vertices: int | None
) -> None:
    if sources.size == 0:
        return
    low = int(min(sources.min(), targets.min()))
    high = int(max(sources.max(), targets.max()))
    if low < 0:
        raise GraphError(f"negative vertex id {low} in edge input")
    if num_vertices is not None and high >= num_vertices:
        raise GraphError(
            f"vertex id {high} outside the declared range [0, {num_vertices})"
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
    on disk is byte-identical to spilling
    ``CSRGraph.from_edge_list(edges, n, weights)`` built from the
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

    Returns the store's ``meta.json`` dictionary.
    """
    if run_half_edges < 1:
        raise GraphError(f"run_half_edges must be >= 1, got {run_half_edges}")
    destination = os.fspath(store_dir)
    os.makedirs(destination, exist_ok=True)
    workdir = os.path.join(destination, f".ingest-tmp.{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        meta = _ingest(chunks, destination, workdir, num_vertices, run_half_edges)
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
        _validate_ids(u, v, num_vertices)
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

    Streaming end to end: the text is parsed in ``chunk_edges`` batches
    and fed through :func:`ingest_edge_chunks`, so ingesting a file far
    larger than RAM needs only ``O(run_half_edges)`` memory.  Ingesting
    the same file twice produces byte-identical stores.  Returns the
    store's ``meta.json`` dictionary.
    """
    return ingest_edge_chunks(
        iter_edge_list_chunks(path, chunk_edges),
        store_dir,
        num_vertices=num_vertices,
        run_half_edges=run_half_edges,
    )
