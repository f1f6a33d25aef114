"""Shared machinery for the CSR fast paths of the streaming baselines.

The baseline partitioners (LDG, Fennel, Wang's LPA coarsening) are
sequential by definition: every decision depends on the assignments made
before it, so the per-vertex loop cannot be replaced by one vectorized
pass without changing the output.  The CSR kernels therefore split the
stream into *chunks*:

* all neighbour/label gathers for a chunk run as flat NumPy operations
  against a snapshot of the labels taken at the chunk boundary, and
* a light scalar loop walks the chunk in stream order, consuming the
  pre-aggregated neighbour counts and patching them with the few
  *intra-chunk* edges whose earlier endpoint was (re)labelled after the
  snapshot was taken.

Because the patch step replays exactly the contributions a per-vertex
loop would have seen, the chunked kernels are assignment-exact with the
dictionary references the test suite keeps (pinned in
``tests/test_csr_partitioners.py``).  All helpers here operate on dense
vertex ids (``0 .. n-1``); the mapping back to original ids lives in
:class:`~repro.graph.csr.CSRGraph`.

:func:`canonical_labels` is the one bridge to the dictionary graph, for
METIS, whose coarsening still walks dictionary adjacency (Wang's coarse
graph goes through it too).  It imports the dictionary graph type only
when called.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    from repro.graph.undirected import UndirectedGraph

#: Default number of stream positions gathered per chunk.  Larger chunks
#: amortize the NumPy call overhead but grow the number of intra-chunk
#: edges that need scalar patching; 2048 is the measured sweet spot at
#: 100k vertices across all three kernels.
DEFAULT_CHUNK = 2048


def canonical_undirected(csr: CSRGraph) -> UndirectedGraph:
    """Materialize a CSR graph as an :class:`UndirectedGraph` canonically.

    Vertices are inserted in ascending original-id order and edges in
    ascending ``(u, v)`` order, so two equal CSR graphs always produce
    dictionaries with identical iteration order — the property the METIS
    adapter (and the equivalence tests) rely on.
    """
    from repro.graph.undirected import UndirectedGraph

    graph = UndirectedGraph()
    ids = csr.original_ids
    for vertex in ids.tolist():
        graph.add_vertex(vertex)
    sources, targets, weights = csr.edge_array()
    forward = sources < targets
    u = ids[sources[forward]]
    v = ids[targets[forward]]
    w = weights[forward]
    order = np.lexsort((v, u))
    for a, b, weight in zip(u[order].tolist(), v[order].tolist(), w[order].tolist()):
        graph.add_edge(a, b, weight=weight)
    return graph


def canonical_labels(
    csr: CSRGraph, partition: Callable[[UndirectedGraph], Mapping[int, int]]
) -> np.ndarray:
    """Run a dictionary-graph ``partition`` on :func:`canonical_undirected`
    of ``csr`` and return its labels in the CSR vertex order."""
    assignment = partition(canonical_undirected(csr))
    return np.asarray(
        [assignment[v] for v in csr.original_ids.tolist()], dtype=np.int64
    )


def bfs_stream(csr: CSRGraph, shuffled_roots: list[int]) -> np.ndarray:
    """Level-synchronous BFS order over all components (dense ids).

    Matches the queue-based reference exactly: roots are tried in the
    given (shuffled) order, neighbours are expanded in ascending id order,
    and a vertex is marked visited when first *enqueued*.  Within a BFS
    level the first occurrence of each vertex wins, which is precisely the
    FIFO enqueue order of the reference implementation.

    Each level's adjacency is gathered raw and then sorted per row with
    one ``lexsort`` on ``(neighbour, row)`` — reproducing the ascending
    per-vertex expansion the reference's ``sorted(graph.neighbors(v))``
    performs, without ever materializing a globally sorted copy of
    ``indices`` (which would be ``O(m)`` RAM and defeat the mmap tier).
    """
    n = csr.num_vertices
    indptr = csr.indptr
    indices = csr.indices
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    filled = 0
    for root in shuffled_roots:
        if visited[root]:
            continue
        visited[root] = True
        level = np.asarray([root], dtype=np.int64)
        while level.size:
            order[filled : filled + level.size] = level
            filled += level.size
            rows, candidates, _ = gather_chunk(indptr, indices, None, level)
            csr.release_pages()
            if candidates.size == 0:
                break
            sort = np.lexsort((candidates, rows))
            candidates = candidates[sort]
            candidates = candidates[~visited[candidates]]
            if candidates.size == 0:
                break
            _, first = np.unique(candidates, return_index=True)
            level = candidates[np.sort(first)]
            visited[level] = True
    return order[:filled]


def stream_order(csr: CSRGraph, order: str, seed: int | None) -> np.ndarray:
    """Dense-id stream order matching the canonical dictionary paths.

    ``"natural"`` is ascending id order; ``"random"`` shuffles a Python
    list with the same :class:`numpy.random.Generator` calls as the
    reference (so the permutation is bit-identical for a given seed);
    ``"bfs"`` shuffles the roots the same way and expands with
    :func:`bfs_stream`.
    """
    n = csr.num_vertices
    if order == "natural":
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    if order == "random":
        return np.asarray(vertices, dtype=np.int64)
    if order == "bfs":
        return bfs_stream(csr, vertices)
    raise ValueError(f"unknown stream order {order!r}")


def gather_chunk(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights_f: np.ndarray | None,
    chunk_vertices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gather the adjacency of a chunk of vertices as flat arrays.

    Returns ``(rows, neighbours, weights)`` where ``rows[i]`` is the
    position within ``chunk_vertices`` whose adjacency produced entry
    ``i``.  Rows are emitted in chunk order, so downstream groupings can
    rely on ``rows`` being non-decreasing.  ``weights_f`` may be ``None``
    for weight-free traversals (the returned weights are then ``None``);
    an integer weight array is converted to ``float64`` *after* the
    gather — elementwise, so the values are identical to gathering from a
    pre-converted array, but only one chunk's worth of floats ever
    exists.  ``indices``/``weights_f`` may be memory-mapped: the fancy
    gathers copy just the chunk into RAM, which (with the caller
    releasing pages between chunks) is what keeps the streaming baselines
    at ``O(chunk + labels)`` peak RSS on the mmap tier.
    """
    counts = indptr[chunk_vertices + 1] - indptr[chunk_vertices]
    total = int(counts.sum())
    rows = np.repeat(np.arange(chunk_vertices.shape[0], dtype=np.int64), counts)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return rows, empty, None if weights_f is None else np.empty(0, dtype=np.float64)
    offsets = np.cumsum(counts) - counts
    flat = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(indptr[chunk_vertices], counts)
    )
    gathered_w = None
    if weights_f is not None:
        gathered_w = np.asarray(weights_f[flat])
        if gathered_w.dtype != np.float64:
            gathered_w = gathered_w.astype(np.float64)
    return rows, np.asarray(indices[flat]), gathered_w


def merge_intra_chunk_patches(
    row: int,
    lo: int,
    hi: int,
    cand_labels: list[int],
    cand_sums: list[float],
    chunk_labels: list[int],
    patch_rows: list[int],
    patch_sources: list[int],
    patch_weights: list[float],
    patch_index: int,
) -> tuple[dict[int, float], int]:
    """Replay intra-chunk contributions into a row's snapshot counts.

    Builds the ``{label: weight}`` mapping a dictionary-path vertex would
    have seen: the snapshot candidates ``[lo, hi)`` plus, for every
    intra-chunk link targeting ``row``, the weight of the neighbour that
    was labelled after the chunk gather.  Returns the merged mapping and
    the advanced patch cursor.  Shared by the LDG and Fennel kernels so
    the patch-replay semantics cannot drift apart.
    """
    merged: dict[int, float] = {}
    for t in range(lo, hi):
        merged[cand_labels[t]] = cand_sums[t]
    num_patches = len(patch_rows)
    while patch_index < num_patches and patch_rows[patch_index] == row:
        source_label = chunk_labels[patch_sources[patch_index]]
        merged[source_label] = merged.get(source_label, 0.0) + patch_weights[patch_index]
        patch_index += 1
    return merged, patch_index


def rowwise_label_counts(
    rows: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    num_rows: int,
    num_labels: int,
) -> tuple[list[int], list[int], list[float]]:
    """Aggregate ``weights`` per ``(row, label)`` for a *small* label space.

    Used by the LDG and Fennel kernels where labels are partition ids
    (``num_labels = k``): one dense ``bincount`` over the composite key
    followed by a single ``nonzero`` yields, per row, the candidate labels
    in ascending order with their exact weight sums.  Returns
    ``(row_starts, labels, sums)`` as Python lists ready for the scalar
    stream loop; entries with an exact zero sum are dropped, mirroring a
    dictionary path in which those labels score zero.
    """
    counts = np.bincount(
        rows * num_labels + labels, weights=weights, minlength=num_rows * num_labels
    )
    nonzero = np.nonzero(counts)[0]
    row_starts = np.searchsorted(nonzero // num_labels, np.arange(num_rows + 1))
    return (
        row_starts.tolist(),
        (nonzero % num_labels).tolist(),
        counts[nonzero].tolist(),
    )


def rowwise_sparse_counts(
    rows: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    num_rows: int,
    modulus: int,
) -> tuple[list[int], np.ndarray, np.ndarray, list[int]]:
    """Aggregate ``weights`` per ``(row, label)`` for a *large* label space.

    Used by the LPA kernel where labels are community ids (up to ``n``
    values), which makes a dense bincount infeasible.  A stable (radix)
    sort on the composite key groups equal ``(row, label)`` pairs; segment
    sums then produce, per row, the candidate labels in ascending order.

    In addition to the ``(row_starts, labels, sums)`` triple this also
    returns, per row, the reference ``argmax`` under label propagation's
    tie rule (highest sum, then smallest label) as ``best_labels`` so rows
    without intra-chunk patches skip the scalar candidate scan entirely.
    Rows without candidates get best label ``-1``.  ``labels`` and
    ``sums`` stay NumPy arrays: only the (rare) rows that need an
    intra-chunk patch ever read them, so converting them wholesale to
    Python lists would dominate the chunk cost.
    """
    if rows.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return [0] * (num_rows + 1), empty, np.empty(0), [-1] * num_rows
    modulus = np.int64(modulus)
    composite = rows * modulus + labels
    order = np.argsort(composite, kind="stable")
    sorted_keys = composite[order]
    sorted_weights = weights[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_keys)) + 1])
    sums = np.add.reduceat(sorted_weights, starts)
    keys = sorted_keys[starts]
    seg_rows = keys // modulus
    seg_labels = keys % modulus
    row_starts = np.searchsorted(seg_rows, np.arange(num_rows + 1))
    # Per-row argmax with ties to the smallest label: segments are sorted
    # by label within a row, so the first occurrence of the row maximum is
    # the reference winner.
    nonempty = np.diff(row_starts) > 0
    row_best = np.full(num_rows, -1, dtype=np.int64)
    if nonempty.any():
        lead = row_starts[:-1][nonempty]
        maxima = np.maximum.reduceat(sums, lead)
        spread = np.repeat(maxima, np.diff(row_starts)[nonempty])
        positions = np.arange(sums.shape[0], dtype=np.int64)
        hit = np.where(sums == spread, positions, sums.shape[0])
        first = np.minimum.reduceat(hit, lead)
        row_best[nonempty] = seg_labels[first]
    return row_starts.tolist(), seg_labels, sums, row_best.tolist()


def intra_chunk_links(
    rows: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    position_of: np.ndarray,
) -> tuple[list[int], list[int], list[float]]:
    """Edges whose *earlier* endpoint sits in the same chunk.

    ``position_of`` maps dense vertex ids to their chunk position (or a
    negative value for vertices outside the chunk).  Returns, grouped by
    the later endpoint's row (ascending, because ``rows`` is), the chunk
    position of the earlier endpoint and the edge weight.  The stream
    loops use these to patch the snapshot counts when the earlier endpoint
    was labelled after the chunk gather.
    """
    neighbor_pos = position_of[neighbors]
    mask = (neighbor_pos >= 0) & (neighbor_pos < rows)
    return (
        rows[mask].tolist(),
        neighbor_pos[mask].tolist(),
        weights[mask].tolist(),
    )
