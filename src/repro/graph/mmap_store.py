"""Out-of-core, memory-mapped CSR storage tier.

The paper partitions graphs far larger than RAM (the Facebook graph has
~1T edges); this module provides the storage layer that lets the repro do
the same on one machine.  A *store* is a directory holding the CSR arrays
of a :class:`~repro.graph.csr.CSRGraph` as flat little-endian ``int64``
shard files plus a JSON descriptor:

``meta.json``
    Format version, ``num_vertices``, ``num_half_edges``, ``total_weight``
    and whether the weights are all 1 (``unit_weights``).  Written last,
    so a complete ``meta.json`` implies a complete store.
``indptr.bin``
    ``int64[n + 1]`` — loaded into RAM on open (``O(n)``, label-sized).
``indices.bin``
    ``int64[2 m]`` — opened as a read-only ``np.memmap``.
``weights.bin``
    ``int64[2 m]`` — memmapped; omitted entirely when every weight is 1
    (the open path substitutes a broadcast view of a single ``1``).
``degrees.bin``
    ``int64[n]`` — weighted degrees, precomputed at write time so opening
    a store never streams the edge files.
``ids.bin``
    ``int64[n]`` — original vertex ids; omitted when they are ``0..n-1``.

:class:`MmapCSRGraph` wraps an open store behind the exact
:class:`~repro.graph.csr.CSRGraph` interface, so every CSR consumer
(FastSpinner, the chunked baseline kernels, the metrics) runs on it
unchanged.  The arrays are byte-identical to the RAM tier's — pinned by
``tests/test_mmap_equivalence.py`` — so the tiers are interchangeable
bit-for-bit.

Keeping peak RSS at ``O(chunk + labels)`` rather than ``O(edges)`` needs
one extra ingredient beyond ``np.memmap``: on a machine with free RAM the
kernel never evicts the file-backed pages a streaming pass touches, so a
full pass would still grow the resident set to the file size.
:meth:`MmapCSRGraph.release_pages` therefore issues
``madvise(MADV_DONTNEED)`` on the mappings (dropping the page-table
entries; the data stays in the OS page cache, which is not charged to the
process), and :meth:`MmapCSRGraph.iter_edge_chunks` copies each chunk off
the mapping and releases the consumed pages as it goes.

The chunk size is a property of the opened store
(``open_store(path, chunk_half_edges=...)``): every streaming consumer —
FastSpinner's histogram and migrant-fold passes and the edge metrics —
reads :attr:`MmapCSRGraph.chunk_half_edges`, so the memory ceiling of an
out-of-core run is decided in one place.  Any chunk ``>= 1`` gives
bit-identical results (every streamed accumulation is a sum of integer
edge weights).
"""

from __future__ import annotations

import json
import mmap as _mmap
import os

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.io import atomic_open, atomic_write_text

#: On-disk format version (bump on any layout change).
FORMAT_VERSION = 1

#: Default number of half-edges an opened store streams per chunk.  32 MiB
#: of targets per chunk: large enough to amortize the NumPy call overhead,
#: small enough that a handful of per-chunk temporaries stay far below any
#: realistic memory budget.
DEFAULT_STORAGE_CHUNK = 1 << 22

_META = "meta.json"
_INDPTR = "indptr.bin"
_INDICES = "indices.bin"
_WEIGHTS = "weights.bin"
_DEGREES = "degrees.bin"
_IDS = "ids.bin"

#: Stored array dtype: little-endian int64, matching the RAM tier exactly.
_DTYPE = np.dtype("<i8")


def _write_array_chunked(path: str, array: np.ndarray, chunk: int) -> None:
    """Write ``array`` to ``path`` atomically, ``chunk`` elements at a time."""
    with atomic_open(path, "wb") as handle:
        for start in range(0, array.shape[0], chunk):
            stop = min(start + chunk, array.shape[0])
            handle.write(np.ascontiguousarray(array[start:stop], dtype=_DTYPE).tobytes())


def _read_array(path: str) -> np.ndarray:
    """Load a whole ``int64`` shard file into RAM (closes the file)."""
    with open(path, "rb") as handle:
        return np.fromfile(handle, dtype=_DTYPE).astype(np.int64, copy=False)


def save_csr(
    graph: CSRGraph, path: str | os.PathLike, chunk_half_edges: int = DEFAULT_STORAGE_CHUNK
) -> None:
    """Spill a :class:`CSRGraph` into a store directory at ``path``.

    The written arrays are byte-identical to the in-RAM ones, so a
    round-trip through :func:`open_store` reproduces the graph exactly.
    Existing shard files in ``path`` are replaced atomically; ``meta.json``
    is written last.
    """
    destination = os.fspath(path)
    os.makedirs(destination, exist_ok=True)
    unit_weights = bool(
        graph.weights.shape[0] == 0
        or (int(graph.weights.min()) == 1 and int(graph.weights.max()) == 1)
    )
    _write_array_chunked(os.path.join(destination, _INDPTR), graph.indptr, chunk_half_edges)
    _write_array_chunked(os.path.join(destination, _INDICES), graph.indices, chunk_half_edges)
    if unit_weights:
        stale = os.path.join(destination, _WEIGHTS)
        if os.path.exists(stale):
            os.remove(stale)
    else:
        _write_array_chunked(
            os.path.join(destination, _WEIGHTS), graph.weights, chunk_half_edges
        )
    _write_array_chunked(
        os.path.join(destination, _DEGREES), graph.weighted_degrees, chunk_half_edges
    )
    trivial_ids = bool(
        np.array_equal(graph.original_ids, np.arange(graph.num_vertices, dtype=np.int64))
    )
    if trivial_ids:
        stale = os.path.join(destination, _IDS)
        if os.path.exists(stale):
            os.remove(stale)
    else:
        _write_array_chunked(os.path.join(destination, _IDS), graph.original_ids, chunk_half_edges)
    write_meta(
        destination,
        num_vertices=graph.num_vertices,
        num_half_edges=int(graph.indices.shape[0]),
        total_weight=graph.total_weight,
        unit_weights=unit_weights,
    )


def write_meta(
    path: str | os.PathLike,
    *,
    num_vertices: int,
    num_half_edges: int,
    total_weight: int,
    unit_weights: bool,
) -> None:
    """Write a store's ``meta.json`` (deterministic bytes, written last)."""
    meta = {
        "format": FORMAT_VERSION,
        "num_half_edges": int(num_half_edges),
        "num_vertices": int(num_vertices),
        "total_weight": int(total_weight),
        "unit_weights": bool(unit_weights),
    }
    atomic_write_text(
        os.path.join(os.fspath(path), _META),
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
    )


def read_meta(path: str | os.PathLike) -> dict:
    """Read and validate a store's ``meta.json``."""
    meta_path = os.path.join(os.fspath(path), _META)
    if not os.path.exists(meta_path):
        raise GraphError(f"{os.fspath(path)!r} is not a CSR store (no {_META})")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported store format {meta.get('format')!r} "
            f"(this build reads format {FORMAT_VERSION})"
        )
    return meta


class MmapCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose edge arrays live in on-disk shard files.

    ``indptr``, ``weighted_degrees`` and ``original_ids`` are loaded into
    RAM (all ``O(n)``, label-sized); ``indices`` and ``weights`` are
    read-only ``np.memmap`` views.  ``chunk_half_edges`` is the number
    of half-edges every streaming pass over the store copies into RAM at
    a time.  Use as a context manager or call :meth:`close` so the
    mappings are released deterministically — on Windows an open mapping
    blocks deletion of the store directory.
    """

    storage = "mmap"

    def __init__(
        self, path: str | os.PathLike, chunk_half_edges: int = DEFAULT_STORAGE_CHUNK
    ) -> None:
        if chunk_half_edges < 1:
            raise GraphError(f"chunk_half_edges must be >= 1, got {chunk_half_edges}")
        self.chunk_half_edges = int(chunk_half_edges)
        directory = os.fspath(path)
        meta = read_meta(directory)
        n = int(meta["num_vertices"])
        half_edges = int(meta["num_half_edges"])
        indptr = _read_array(os.path.join(directory, _INDPTR))
        if indptr.shape[0] != n + 1:
            raise GraphError(
                f"store {directory!r}: indptr has {indptr.shape[0]} entries "
                f"for {n} vertices"
            )
        self._memmaps: list[np.memmap] = []
        indices = self._map(os.path.join(directory, _INDICES), half_edges)
        if meta["unit_weights"]:
            weights = np.broadcast_to(np.ones(1, dtype=np.int64), (half_edges,))
        else:
            weights = self._map(os.path.join(directory, _WEIGHTS), half_edges)
        degrees = _read_array(os.path.join(directory, _DEGREES))
        ids_path = os.path.join(directory, _IDS)
        original_ids = _read_array(ids_path) if os.path.exists(ids_path) else None
        self.path = directory
        self._closed = False
        super().__init__(
            indptr,
            indices,
            weights,
            original_ids,
            weighted_degrees=degrees,
            total_weight=int(meta["total_weight"]),
        )

    def _map(self, path: str, length: int) -> np.ndarray:
        """Memory-map one shard file read-only (empty files map to empty arrays)."""
        if length == 0:
            return np.empty(0, dtype=np.int64)
        if not os.path.exists(path):
            raise GraphError(f"store shard {path!r} is missing")
        mapped = np.memmap(path, dtype=_DTYPE, mode="r", shape=(length,))
        self._memmaps.append(mapped)
        return mapped

    # ------------------------------------------------------------------
    def release_pages(self) -> None:
        """Drop the resident pages of every mapping (``MADV_DONTNEED``).

        The data stays in the OS page cache, so re-reading it later is a
        soft fault, but the pages no longer count against this process's
        RSS — the call that keeps full streaming passes at ``O(chunk)``
        peak memory.  Silently a no-op where ``madvise`` is unavailable.
        """
        for mapped in self._memmaps:
            buffer = getattr(mapped, "_mmap", None)
            if buffer is None or not hasattr(buffer, "madvise"):
                continue
            try:
                buffer.madvise(getattr(_mmap, "MADV_DONTNEED"))
            except (AttributeError, ValueError, OSError):  # pragma: no cover
                pass

    def iter_edge_chunks(self, chunk_half_edges: int):
        """Stream half-edge chunks as RAM copies, releasing consumed pages.

        Overrides the base implementation to copy each chunk out of the
        mappings (fancy downstream indexing would copy anyway) and then
        drop the pages the chunk touched, so a full pass over a graph much
        larger than the memory budget keeps peak RSS at ``O(chunk)``.
        """
        for v_lo, v_hi, sources, targets, weights in super().iter_edge_chunks(
            chunk_half_edges
        ):
            targets = np.array(targets, dtype=np.int64, copy=True)
            weights = np.array(weights, dtype=np.int64, copy=True)
            self.release_pages()
            yield v_lo, v_hi, sources, targets, weights

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the memory mappings (idempotent).

        After closing, the edge arrays must not be touched again; the
        store directory can then be deleted immediately, even on Windows.
        """
        if self._closed:
            return
        self._closed = True
        buffers = [getattr(mapped, "_mmap", None) for mapped in self._memmaps]
        self._memmaps.clear()
        # Drop the ndarray references first so the underlying buffers have
        # no exporters left, then close the mappings for real.
        self.indices = np.empty(0, dtype=np.int64)
        self.weights = np.empty(0, dtype=np.int64)
        for buffer in buffers:
            if buffer is not None:
                try:
                    buffer.close()
                except BufferError:  # pragma: no cover - caller kept a view
                    pass

    def __enter__(self) -> "MmapCSRGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MmapCSRGraph(path={self.path!r}, |V|={self.num_vertices}, |E|={self.num_edges})"


def open_store(
    path: str | os.PathLike, chunk_half_edges: int = DEFAULT_STORAGE_CHUNK
) -> MmapCSRGraph:
    """Open a store directory as an :class:`MmapCSRGraph`.

    ``chunk_half_edges`` sets how many half-edges each streaming pass over
    the store holds in RAM at once; any value ``>= 1`` is bit-exact, and
    smaller values trade speed for a lower memory ceiling.
    """
    return MmapCSRGraph(path, chunk_half_edges)
