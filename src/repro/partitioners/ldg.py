"""Linear Deterministic Greedy streaming partitioner (Stanton & Kliot).

The "Stanton et al." row of Table I.  Vertices arrive one at a time
together with their adjacency list; each is immediately and permanently
assigned to the partition

``argmax_i |N(v) ∩ P_i| * (1 - |P_i| / C)``

where ``C = n / k`` is the per-partition vertex capacity.  The linear
penalty keeps partitions balanced in vertex count while the intersection
term favours locality.  Ties break towards the currently smallest
partition.

The implementation is a chunked CSR kernel
(:meth:`LinearDeterministicGreedy.partition_array`).  It produces the
same assignment as the per-vertex dictionary loop the test suite keeps
as its reference, for the same seed and stream order (pinned in
``tests/test_csr_partitioners.py``).  Vertices stream in ascending-id
canonical order (sorted before shuffling, sorted neighbour
expansion in BFS), so the result depends only on the graph.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner
from repro.partitioners.csr_stream import (
    DEFAULT_CHUNK,
    gather_chunk,
    intra_chunk_links,
    merge_intra_chunk_patches,
    rowwise_label_counts,
    stream_order,
)


class LinearDeterministicGreedy(Partitioner):
    """One-pass streaming partitioner with a linear balance penalty.

    Parameters
    ----------
    capacity_slack:
        Multiplier on the ideal per-partition vertex count used as the
        capacity ``C``; 1.0 reproduces the original formulation.
    stream_order:
        ``"natural"`` streams vertices in id order, ``"random"`` shuffles
        them (with ``seed``), ``"bfs"`` approximates a crawl order.
    seed:
        Seed for the random stream order.
    """

    name = "ldg"

    def __init__(
        self,
        capacity_slack: float = 1.0,
        stream_order: str = "random",
        seed: int | None = 0,
    ) -> None:
        if stream_order not in ("natural", "random", "bfs"):
            raise ValueError(f"unknown stream order {stream_order!r}")
        self.capacity_slack = capacity_slack
        self.stream_order = stream_order
        self.seed = seed

    # ------------------------------------------------------------------
    def partition_array(
        self, graph: CSRGraph, num_partitions: int, chunk: int = DEFAULT_CHUNK
    ) -> np.ndarray:
        """Stream the vertices through the LDG rule, one chunk at a time.

        Neighbour-label counts are gathered per chunk with flat array
        operations; the scalar loop only scores the (few) candidate
        partitions of each vertex and patches intra-chunk contributions,
        so the cost per vertex is bounded by its candidate count rather
        than by ``k``.
        """
        n = graph.num_vertices
        k = num_partitions
        if n == 0:
            return np.empty(0, dtype=np.int64)
        indptr, indices = graph.indptr, graph.indices
        # Raw (possibly memory-mapped) weights: gather_chunk converts each
        # gathered slice to float64, so no full-length float copy exists.
        weights_f = graph.weights
        capacity = self.capacity_slack * n / k
        order = stream_order(graph, self.stream_order, self.seed)

        labels = np.full(n, k, dtype=np.int64)  # k == "unassigned" sentinel
        position_of = np.full(n, -1, dtype=np.int64)
        sizes = [0.0] * k
        sizes_np = np.zeros(k, dtype=np.float64)
        # Penalty per partition, maintained incrementally with the exact
        # arithmetic of the reference (`clip(1 - size / capacity, 0, None)`).
        penalty = [1.0 - 0.0 / capacity] * k
        for start in range(0, n, chunk):
            chunk_vertices = order[start : start + chunk]
            rows, neighbors, wts = gather_chunk(indptr, indices, weights_f, chunk_vertices)
            graph.release_pages()
            gathered = labels[neighbors]
            assigned = gathered < k
            row_starts, cand_labels, cand_sums = rowwise_label_counts(
                rows[assigned],
                gathered[assigned],
                wts[assigned],
                chunk_vertices.shape[0],
                k,
            )
            position_of[chunk_vertices] = np.arange(chunk_vertices.shape[0])
            patch_rows, patch_sources, patch_weights = intra_chunk_links(
                rows, neighbors, wts, position_of
            )
            position_of[chunk_vertices] = -1

            chunk_labels = [0] * chunk_vertices.shape[0]
            patch_index = 0
            num_patches = len(patch_rows)
            for row in range(chunk_vertices.shape[0]):
                lo, hi = row_starts[row], row_starts[row + 1]
                if patch_index < num_patches and patch_rows[patch_index] == row:
                    merged, patch_index = merge_intra_chunk_patches(
                        row, lo, hi, cand_labels, cand_sums, chunk_labels,
                        patch_rows, patch_sources, patch_weights, patch_index,
                    )
                    best = -1
                    best_score = 0.0
                    for label in sorted(merged):
                        score = merged[label] * penalty[label]
                        if score > best_score:
                            best_score = score
                            best = label
                else:
                    best = -1
                    best_score = 0.0
                    for t in range(lo, hi):
                        label = cand_labels[t]
                        score = cand_sums[t] * penalty[label]
                        if score > best_score:
                            best_score = score
                            best = label
                if best < 0:
                    # All scores zero: least-loaded fallback (first minimum,
                    # like np.argmin on the reference path).
                    best = int(sizes_np.argmin())
                chunk_labels[row] = best
                new_size = sizes[best] + 1.0
                sizes[best] = new_size
                sizes_np[best] = new_size
                updated = 1.0 - new_size / capacity
                penalty[best] = updated if updated > 0.0 else 0.0
            labels[chunk_vertices] = chunk_labels
        return labels
