"""Fennel streaming partitioner (Tsourakakis et al., WSDM 2014).

The "Fennel" row of Table I.  Like LDG it is a one-pass streaming
heuristic, but the balance term is a concave cost on the partition size:
vertex ``v`` goes to the partition maximizing

``|N(v) ∩ P_i| - alpha * gamma * |P_i|^(gamma - 1)``

with ``gamma = 1.5`` and ``alpha = sqrt(k) * m / n^1.5`` (the paper's
recommended setting), subject to a hard capacity ``nu * n / k`` on the
partition's vertex count (``nu = 1.1`` matches the load factor used in the
Fennel paper and the ~1.10 balance the Spinner paper reports for it).

Like LDG the implementation is a chunked CSR kernel
(:meth:`FennelPartitioner.partition_array`), assignment-exact with the
per-vertex dictionary loop the test suite keeps as its reference, for
the same seed and stream order.  The
kernel precomputes the marginal cost for every possible integer partition
size with the same vectorized ``np.power`` call as the reference, so the
scalar loop reads exact score values from a table instead of evaluating
``k`` powers per vertex.
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


class FennelPartitioner(Partitioner):
    """One-pass streaming partitioner with a concave balance cost."""

    name = "fennel"

    def __init__(
        self,
        gamma: float = 1.5,
        load_factor: float = 1.1,
        stream_order: str = "random",
        seed: int | None = 0,
    ) -> None:
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if load_factor < 1.0:
            raise ValueError("load_factor must be at least 1")
        if stream_order not in ("natural", "random"):
            raise ValueError(f"unknown stream order {stream_order!r}")
        self.gamma = gamma
        self.load_factor = load_factor
        self.stream_order = stream_order
        self.seed = seed

    # ------------------------------------------------------------------
    def partition_array(
        self, graph: CSRGraph, num_partitions: int, chunk: int = DEFAULT_CHUNK
    ) -> np.ndarray:
        """Stream the vertices through the Fennel objective, chunk-wise.

        The reference argmax runs over all ``k`` partitions, but only
        partitions holding a placed neighbour can beat the best *empty*
        candidate — and among empty candidates the marginal cost is
        monotone in the partition size, so the winner is always the
        least-loaded partition (first index on ties, exactly like
        ``np.argmax``).  The scalar loop therefore scores the sparse
        neighbour candidates plus that single least-loaded partition.
        """
        n = graph.num_vertices
        k = num_partitions
        if n == 0:
            return np.empty(0, dtype=np.int64)
        indptr, indices = graph.indptr, graph.indices
        # Raw (possibly memory-mapped) weights: gather_chunk converts each
        # gathered slice to float64, so no full-length float copy exists.
        weights_f = graph.weights
        m = max(graph.num_edges, 1)
        alpha = np.sqrt(k) * m / (n ** 1.5)
        capacity = self.load_factor * n / k
        # Marginal cost by integer partition size, computed with the same
        # vectorized np.power expression as the reference so table entries
        # are bit-identical to what the dictionary oracle evaluates.
        max_size = min(n, int(capacity) + 2)
        cost_table = (
            alpha * self.gamma * np.power(np.arange(max_size + 1, dtype=np.float64), self.gamma - 1.0)
        ).tolist()
        order = stream_order(graph, self.stream_order, self.seed)

        labels = np.full(n, k, dtype=np.int64)
        position_of = np.full(n, -1, dtype=np.int64)
        sizes = [0] * k
        # Least-loaded tracking: histogram of sizes plus the first index at
        # the minimum, recomputed lazily only when consumed.  num_capped
        # counts partitions at the hard capacity so the common no-cap case
        # skips the per-candidate capacity check.
        size_histogram = [0] * (max_size + 2)
        size_histogram[0] = k
        min_size = 0
        num_capped = 0

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
                    candidates = sorted(merged.items())
                else:
                    candidates = None
                best = -1
                best_score = -np.inf
                if candidates is None:
                    if num_capped:
                        for t in range(lo, hi):
                            label = cand_labels[t]
                            if sizes[label] >= capacity:
                                continue
                            score = cand_sums[t] - cost_table[sizes[label]]
                            if score > best_score:
                                best_score = score
                                best = label
                    else:
                        for t in range(lo, hi):
                            label = cand_labels[t]
                            score = cand_sums[t] - cost_table[sizes[label]]
                            if score > best_score:
                                best_score = score
                                best = label
                else:
                    for label, summed in candidates:
                        if num_capped and sizes[label] >= capacity:
                            continue
                        score = summed - cost_table[sizes[label]]
                        if score > best_score:
                            best_score = score
                            best = label
                empty_score = -cost_table[min_size]
                if best < 0 or empty_score > best_score:
                    # Least-loaded partition (first index at the minimum
                    # size) wins outright.
                    best = sizes.index(min_size)
                elif empty_score == best_score:
                    # Exact tie: np.argmax takes the smaller index.
                    least = sizes.index(min_size)
                    if least < best:
                        best = least
                chunk_labels[row] = best
                old_size = sizes[best]
                sizes[best] = old_size + 1
                size_histogram[old_size] -= 1
                size_histogram[old_size + 1] += 1
                if old_size == min_size and size_histogram[min_size] == 0:
                    min_size += 1
                if old_size < capacity <= old_size + 1:
                    num_capped += 1
            labels[chunk_vertices] = chunk_labels
        return labels
