"""Compressed sparse row (CSR) view of a weighted undirected graph.

The vectorized Spinner implementation (:mod:`repro.core.fast`) and several
baseline partitioners operate on flat NumPy arrays rather than Python
dictionaries.  :class:`CSRGraph` stores, for a graph with ``n`` vertices
and ``m`` undirected edges:

``indptr``
    ``int64[n + 1]`` — the adjacency list of vertex ``v`` occupies
    ``indices[indptr[v]:indptr[v + 1]]``.
``indices``
    ``int64[2 m]`` — neighbour ids (each undirected edge appears twice).
``weights``
    ``int64[2 m]`` — edge weights aligned with ``indices``.

Vertex ids are densified to ``0 .. n - 1``; the mapping back to the
original ids is kept in ``original_ids``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GraphError

if TYPE_CHECKING:
    from repro.graph.undirected import UndirectedGraph


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sums of ``values`` over CSR ``indptr`` segments.

    ``np.add.reduceat`` mis-handles empty segments (it returns the element
    at the segment start instead of 0), so the reduction runs over the
    non-empty segment starts only: consecutive non-empty starts bound
    exactly one original segment because the empty segments between them
    contribute no elements.
    """
    n = indptr.shape[0] - 1
    out = np.zeros(n, dtype=values.dtype)
    if n == 0 or values.shape[0] == 0:
        return out
    nonempty = np.diff(indptr) > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def build_csr_arrays(
    sources: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort half-edges by source and return ``(indptr, indices, weights)``."""
    order = np.argsort(sources, kind="stable")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
    return indptr, targets[order], weights[order]


class CSRGraph:
    """Immutable CSR representation of a weighted undirected graph."""

    #: Which storage tier holds ``indices``/``weights``: ``"ram"`` for plain
    #: in-memory arrays, ``"mmap"`` for the on-disk tier
    #: (:class:`repro.graph.mmap_store.MmapCSRGraph`).
    storage = "ram"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        original_ids: np.ndarray | None = None,
        *,
        weighted_degrees: np.ndarray | None = None,
        total_weight: int | None = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.shape[0] == 0 or self.indptr[0] != 0:
            raise GraphError("indptr must be 1-D and start at 0")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphError("indptr[-1] must equal len(indices)")
        if self.indices.shape != self.weights.shape:
            raise GraphError("indices and weights must have the same shape")
        self.num_vertices = self.indptr.shape[0] - 1
        if original_ids is None:
            original_ids = np.arange(self.num_vertices, dtype=np.int64)
        self.original_ids = np.asarray(original_ids, dtype=np.int64)
        if self.original_ids.shape[0] != self.num_vertices:
            raise GraphError("original_ids must have one entry per vertex")
        # Weighted degree per vertex: the balance quantity of the paper.
        # Computed directly in int64 over the indptr segments (no float
        # round-trip); the kernels use the cached float view below.  The
        # out-of-core tier passes precomputed values so that opening a
        # store never has to stream the full weight array.
        if weighted_degrees is None:
            weighted_degrees = _segment_sums(self.weights, self.indptr)
        self.weighted_degrees = np.asarray(weighted_degrees, dtype=np.int64)
        if self.weighted_degrees.shape[0] != self.num_vertices:
            raise GraphError("weighted_degrees must have one entry per vertex")
        self._weighted_degrees_f: np.ndarray | None = None
        # total_weight counts each undirected edge's weight once.
        if total_weight is None:
            total_weight = int(self.weights.sum() // 2)
        self.total_weight = int(total_weight)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.shape[0] // 2

    @property
    def weighted_degrees_f(self) -> np.ndarray:
        """Cached ``float64`` view of :attr:`weighted_degrees`.

        The label-propagation kernels divide by the weighted degree every
        iteration; caching the float conversion keeps that off the hot
        path.  Callers must not mutate the returned array.
        """
        if self._weighted_degrees_f is None:
            self._weighted_degrees_f = self.weighted_degrees.astype(np.float64)
        return self._weighted_degrees_f

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the neighbour ids of a (dense) vertex id."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """Return the edge weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[vertex] : self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Return the unweighted degree of a dense vertex id."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def weighted_degree(self, vertex: int) -> int:
        """Return the weighted degree of a dense vertex id."""
        return int(self.weighted_degrees[vertex])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(sources, targets, weights)`` arrays with both directions.

        Every undirected edge appears twice, once per direction, which is the
        layout the vectorized label-propagation kernel needs.
        """
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr))
        return sources, self.indices, self.weights

    def iter_edge_chunks(
        self, chunk_half_edges: int
    ) -> "Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]":
        """Stream the half-edge arrays in contiguous chunks.

        Yields ``(v_lo, v_hi, sources, targets, weights)`` where the chunk
        covers half-edges ``[e0, e1)`` whose source vertices all lie in
        ``[v_lo, v_hi)``; a vertex whose adjacency spans a chunk boundary
        appears in both chunks with the corresponding slice of its
        neighbours.  Because every accumulation the kernels perform over
        these chunks is a sum of exactly-representable integers, results
        are bit-identical for every chunk size — the property the
        out-of-core tier's equivalence suite pins.

        The base implementation yields array views (no copies); the mmap
        tier overrides it to copy each chunk off the mapping and drop the
        consumed pages so peak RSS stays ``O(chunk)``.
        """
        if chunk_half_edges < 1:
            raise GraphError(f"chunk_half_edges must be >= 1, got {chunk_half_edges}")
        total = int(self.indptr[-1])
        indptr = self.indptr
        for e0 in range(0, total, chunk_half_edges):
            e1 = min(e0 + chunk_half_edges, total)
            v_lo = int(np.searchsorted(indptr, e0, side="right")) - 1
            v_hi = int(np.searchsorted(indptr, e1 - 1, side="right"))
            bounds = np.clip(indptr[v_lo : v_hi + 1], e0, e1)
            sources = np.repeat(
                np.arange(v_lo, v_hi, dtype=np.int64), np.diff(bounds)
            )
            yield v_lo, v_hi, sources, self.indices[e0:e1], self.weights[e0:e1]

    def release_pages(self) -> None:
        """Drop any file-backed pages this graph holds resident (no-op here).

        The mmap tier overrides this to ``madvise(MADV_DONTNEED)`` its
        mappings after a streaming pass; for the RAM tier there is nothing
        to release.
        """

    # ------------------------------------------------------------------
    @classmethod
    def from_undirected(cls, graph: UndirectedGraph) -> "CSRGraph":
        """Build a CSR view from an :class:`UndirectedGraph`.

        Vertex ids are densified in sorted order of the original ids.  The
        only per-edge Python work is draining the edge iterator once; the
        densification (``np.searchsorted`` against the sorted original
        ids), mirroring and sorting all run vectorized.
        """
        n = graph.num_vertices
        original_ids = np.fromiter(graph.vertices(), dtype=np.int64, count=n)
        original_ids.sort()
        edge_rows = [(u, v, w) for u, v, w in graph.edges()]
        if edge_rows:
            triples = np.asarray(edge_rows, dtype=np.int64)
        else:
            triples = np.empty((0, 3), dtype=np.int64)
        u = np.searchsorted(original_ids, triples[:, 0])
        v = np.searchsorted(original_ids, triples[:, 1])
        w = triples[:, 2]
        indptr, indices, weights = build_csr_arrays(
            np.concatenate([u, v]),
            np.concatenate([v, u]),
            np.concatenate([w, w]),
            n,
        )
        return cls(indptr, indices, weights, original_ids)

    @classmethod
    def from_edge_list(
        cls,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        num_vertices: int,
        weights: Sequence[int] | np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a CSR view directly from an undirected edge list.

        ``edges`` holds each undirected edge once; both directions are
        materialized internally.  Duplicate edges are the caller's
        responsibility (they are kept as parallel edges).
        """
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be an (m, 2) array")
        if weights is None:
            weight_array = np.ones(edge_array.shape[0], dtype=np.int64)
        else:
            weight_array = np.asarray(weights, dtype=np.int64)
            if weight_array.shape[0] != edge_array.shape[0]:
                raise GraphError("weights must align with edges")
        indptr, targets, both_weights = build_csr_arrays(
            np.concatenate([edge_array[:, 0], edge_array[:, 1]]),
            np.concatenate([edge_array[:, 1], edge_array[:, 0]]),
            np.concatenate([weight_array, weight_array]),
            num_vertices,
        )
        return cls(indptr, targets, both_weights)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
