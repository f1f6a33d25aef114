"""A multilevel k-way partitioner in the spirit of METIS.

The paper compares Spinner against METIS (Karypis & Kumar), the offline
"golden standard": excellent locality and balance at the cost of a global
view of the graph.  Since the real METIS is a C library outside this
environment, this module implements the same three-phase multilevel
scheme from scratch:

1. **Coarsening** — repeatedly contract a heavy-edge matching until the
   graph is small (vertex weights accumulate, parallel edges merge their
   weights), preserving the structure that matters for cuts;
2. **Initial partitioning** — greedy region growing on the coarsest graph:
   ``k`` balanced regions are grown around spread-out seeds, picking at
   each step the frontier vertex with the strongest connection to the
   region;
3. **Uncoarsening with refinement** — the assignment is projected back
   level by level and improved with a boundary Kernighan–Lin/FM pass that
   moves border vertices to the neighbouring partition with the highest
   gain whenever the balance constraint allows it.

Every level is a set of CSR arrays whose rows list each vertex's
neighbours in a canonical walk order: on the input, edges by ascending
original-id pair; on a coarse level, the order in which the finer level's
edge walk first met each coarse edge.  The matching and region growing
are scalar loops over those rows, contraction is one keyed reduction per
level, and refinement keeps an ``(n, k)`` connection histogram in sync
with the moves.  The labels depend only on the graph and the seed, and
equal the dictionary multilevel code kept in ``tests/oracles/metis.py``.

The result behaves like the paper's METIS column: slightly better locality
than Spinner with very tight balance, at a much higher (and inherently
centralized) computational cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner

#: Vertices evaluated together right after a refinement move; the block
#: doubles each time it holds no mover.
_MIN_BLOCK = 8


@dataclass
class Level:
    """One level of the coarsening hierarchy, as CSR rows in walk order."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    vertex_weight: np.ndarray
    # The vertex keys the edge walk and region growing read: original ids
    # on the input level, ``0 .. n-1`` on coarse levels.
    ids: np.ndarray
    # Coarse vertex of each vertex of this level (set once contracted).
    parent: np.ndarray | None = None

    @classmethod
    def from_edges(
        cls,
        lo: np.ndarray,
        hi: np.ndarray,
        weights: np.ndarray,
        vertex_weight: np.ndarray,
        ids: np.ndarray,
    ) -> Level:
        """Rows that list each vertex's neighbours in edge order."""
        m = max(lo.shape[0], 1)
        edge = np.arange(lo.shape[0])
        # The (endpoint, edge) keys are distinct, so a plain sort groups
        # the rows and keeps each row in edge order.
        sources, edge = np.divmod(np.sort(np.concatenate([lo * m + edge, hi * m + edge])), m)
        indptr = np.zeros(vertex_weight.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=vertex_weight.shape[0]), out=indptr[1:])
        return cls(indptr, lo[edge] + hi[edge] - sources, weights[edge], vertex_weight, ids)

    @property
    def num_vertices(self) -> int:
        """Number of vertices of this level."""
        return self.vertex_weight.shape[0]

    def edge_walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, weight)`` per edge, row by row with ``ids[u] < ids[v]``."""
        sources = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        forward = self.ids[sources] < self.ids[self.indices]
        return sources[forward], self.indices[forward], self.weights[forward]


def _input_edges(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The input's undirected edges ``(lo, hi, weight)`` in canonical order.

    Each pair of dense endpoints ``lo < hi`` appears once, ordered by
    ``(original_ids[lo], original_ids[hi])`` with its first weight in CSR
    order; self-loops are dropped.
    """
    ids = graph.original_ids
    negative = np.flatnonzero(ids < 0)
    if negative.size:
        raise GraphError(f"vertex ids must be non-negative, got {int(ids[negative[0]])}")
    sources, targets, weights = graph.edge_array()
    forward = sources < targets
    lo, hi, w = sources[forward], targets[forward], weights[forward]
    order = np.lexsort((ids[hi], ids[lo]))
    lo, hi, w = lo[order], hi[order], w[order]
    bad = np.flatnonzero(w <= 0)
    if bad.size:
        raise GraphError(f"edge weights must be positive, got {int(w[bad[0]])}")
    first = np.ones(lo.shape[0], dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[first], hi[first], w[first]


class MetisLikePartitioner(Partitioner):
    """Multilevel partitioner: coarsen, partition, refine.

    Parameters
    ----------
    balance_tolerance:
        Allowed imbalance of the vertex-weight (edge-load) balance, e.g.
        1.03 allows partitions 3% above the ideal share — METIS' default
        ballpark and the balance the paper reports for it.
    coarsest_size:
        Coarsening stops once the graph has at most
        ``max(coarsest_size, 4 * k)`` vertices.
    refinement_passes:
        Number of boundary refinement sweeps per level.
    seed:
        Seed for the matching and seeding randomness.
    """

    name = "metis-like"

    def __init__(
        self,
        balance_tolerance: float = 1.03,
        coarsest_size: int = 128,
        refinement_passes: int = 4,
        seed: int | None = 0,
    ) -> None:
        if balance_tolerance < 1.0:
            raise ValueError("balance_tolerance must be at least 1")
        self.balance_tolerance = balance_tolerance
        self.coarsest_size = coarsest_size
        self.refinement_passes = refinement_passes
        self.seed = seed

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Partition ``graph``, balancing weighted degrees (at least 1).

        Duplicate pairs keep their first weight and self-loops are
        dropped; a non-positive weight raises :class:`GraphError`.
        """
        lo, hi, weights = _input_edges(graph)
        degree = np.bincount(
            np.concatenate([lo, hi]),
            weights=np.concatenate([weights, weights]),
            minlength=graph.num_vertices,
        )
        level = Level.from_edges(
            lo, hi, weights, np.maximum(degree, 1.0), graph.original_ids
        )
        return self.multilevel(level, num_partitions)

    def multilevel(self, level: Level, num_partitions: int) -> np.ndarray:
        """Coarsen ``level``, partition the coarsest graph and refine back,
        balancing ``level.vertex_weight``; returns one label per vertex."""
        if level.num_vertices == 0:
            return np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        levels = self._coarsen(level, num_partitions, rng)
        labels = _initial_partition(levels[-1], num_partitions)
        labels = self._refine(levels[-1], labels, num_partitions)
        for finer in reversed(levels[:-1]):
            labels = self._refine(finer, labels[finer.parent], num_partitions)
        return labels

    # ------------------------------------------------------------------
    # phase 1: coarsening
    # ------------------------------------------------------------------
    def _coarsen(
        self, level: Level, num_partitions: int, rng: np.random.Generator
    ) -> list[Level]:
        levels = [level]
        target = max(self.coarsest_size, 4 * num_partitions)
        while levels[-1].num_vertices > target:
            current = levels[-1]
            parent, coarse = _contract(current, _heavy_edge_matching(current, rng))
            if coarse.num_vertices >= current.num_vertices:
                break  # no progress; stop coarsening
            current.parent = parent
            levels.append(coarse)
        return levels

    # ------------------------------------------------------------------
    # phase 3: boundary refinement
    # ------------------------------------------------------------------
    def _refine(self, level: Level, labels: np.ndarray, num_partitions: int) -> np.ndarray:
        """Greedy passes in ascending vertex order (updating ``labels`` in
        place): each vertex moves to the first label of highest positive
        gain whose load stays in bounds.

        Decisions are taken for a block of consecutive vertices at once,
        against a connection histogram kept in sync with the moves.  Every
        vertex before a block's first mover sees the state the block was
        evaluated against, so the next block starts right after that mover
        and the passes equal the one-vertex-at-a-time loop.  Connections
        and loads are sums of integer-valued floats, hence exact.
        """
        n, k = level.num_vertices, num_partitions
        indptr, indices, weights = level.indptr, level.indices, level.weights
        vertex_weight = level.vertex_weight
        loads = np.bincount(labels, weights=vertex_weight, minlength=k)
        max_load = self.balance_tolerance * loads.sum() / k
        sources = np.repeat(np.arange(n), np.diff(indptr))
        connection = np.bincount(
            sources * k + labels[indices], weights=weights, minlength=n * k
        ).reshape(n, k)
        for _ in range(self.refinement_passes):
            moved = 0
            start, span = 0, _MIN_BLOCK
            while start < n:
                stop = min(start + span, n)
                rows = np.arange(stop - start)
                block = connection[start:stop]
                gain = block - block[rows, labels[start:stop]][:, None]
                gain[loads + vertex_weight[start:stop, None] > max_load] = 0.0
                best = gain.argmax(axis=1)
                movers = np.flatnonzero(gain[rows, best] > 0.0)
                if movers.size == 0:
                    start, span = stop, 2 * span
                    continue
                vertex = start + int(movers[0])
                current, target = labels[vertex], best[movers[0]]
                labels[vertex] = target
                loads[current] -= vertex_weight[vertex]
                loads[target] += vertex_weight[vertex]
                lo, hi = indptr[vertex], indptr[vertex + 1]
                connection[indices[lo:hi], current] -= weights[lo:hi]
                connection[indices[lo:hi], target] += weights[lo:hi]
                moved += 1
                start, span = vertex + 1, _MIN_BLOCK
            if moved == 0:
                break
        return labels


def _heavy_edge_matching(level: Level, rng: np.random.Generator) -> np.ndarray:
    """Match each unmatched vertex, in shuffled order, with its heaviest
    unmatched neighbour (the first in row order on ties), else itself."""
    order = np.arange(level.num_vertices)
    rng.shuffle(order)
    # A free neighbour as heavy as the row's heaviest edge ends the scan.
    row_max = np.zeros(level.num_vertices, dtype=np.int64)
    nonempty = np.diff(level.indptr) > 0
    if level.weights.size:
        row_max[nonempty] = np.maximum.reduceat(level.weights, level.indptr[:-1][nonempty])
    # Memoryviews read single entries as ints without converting the
    # whole arrays, most of which an early-ending scan never reads.
    row_max = memoryview(row_max)
    indptr = memoryview(level.indptr)
    indices = memoryview(level.indices)
    weights = memoryview(level.weights)
    match = [-1] * level.num_vertices
    for vertex in order.tolist():
        if match[vertex] >= 0:
            continue
        best, best_weight = vertex, -1.0
        for t in range(indptr[vertex], indptr[vertex + 1]):
            neighbour = indices[t]
            if match[neighbour] < 0 and weights[t] > best_weight:
                best, best_weight = neighbour, weights[t]
                if best_weight == row_max[vertex]:
                    break
        match[vertex] = best
        match[best] = vertex
    return np.asarray(match, dtype=np.int64)


def _contract(level: Level, match: np.ndarray) -> tuple[np.ndarray, Level]:
    """Merge matched pairs; returns each vertex's coarse vertex and the
    coarse level.

    Coarse vertices are numbered by their lower member.  Parallel coarse
    edges sum their weights, and each coarse edge sits where the finer
    edge walk first met it.
    """
    vertices = np.arange(level.num_vertices)
    leads = match >= vertices
    parent = (np.cumsum(leads) - 1)[np.minimum(vertices, match)]
    num_coarse = int(leads.sum())
    vertex_weight = np.bincount(parent, weights=level.vertex_weight, minlength=num_coarse)
    u, v, weights = level.edge_walk()
    cu, cv = parent[u], parent[v]
    crossing = cu != cv
    lo, hi, sums, first = merge_parallel_edges(
        cu[crossing], cv[crossing], weights[crossing], num_coarse
    )
    walk = np.argsort(first)
    coarse = Level.from_edges(lo[walk], hi[walk], sums[walk], vertex_weight, np.arange(num_coarse))
    return parent, coarse


def merge_parallel_edges(
    u: np.ndarray, v: np.ndarray, weights: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum the weights of parallel edges ``{u, v}`` (no self-loops).

    Returns ``(lo, hi, sums, first)`` with one entry per distinct pair
    ``lo < hi`` in ascending order, where ``first`` is the position of
    the pair's first edge in the input.
    """
    key = np.minimum(u, v) * np.int64(num_vertices) + np.maximum(u, v)
    by_key = np.argsort(key)
    sorted_key = key[by_key]
    starts = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    lo, hi = np.divmod(sorted_key[starts], num_vertices)
    sums = np.add.reduceat(weights[by_key], starts)
    return lo, hi, sums, np.minimum.reduceat(by_key, starts)


def _initial_partition(level: Level, num_partitions: int) -> np.ndarray:
    """Grow ``k`` regions around the highest-degree free vertices.

    Each step takes the frontier vertex most strongly connected to the
    region (the first in the frontier set's iteration order on ties, so
    the frontier holds vertex keys); a region stops at ``1/k`` of the
    total weight.  Vertices no region reached go to the lightest part.
    """
    keys = level.ids.tolist()
    index_of = {key: index for index, key in enumerate(keys)}
    indptr = level.indptr.tolist()
    indices = level.indices.tolist()
    weights = level.weights.tolist()
    vertex_weight = level.vertex_weight.tolist()
    target = sum(vertex_weight) / num_partitions
    labels = [-1] * len(keys)
    loads = np.zeros(num_partitions, dtype=np.float64)
    seeds = iter(np.argsort(-np.diff(level.indptr), kind="stable").tolist())

    for label in range(num_partitions):
        seed = next((s for s in seeds if labels[s] < 0), None)
        if seed is None:
            break
        frontier = {keys[seed]}
        while frontier and loads[label] < target:
            best_key = None
            best_connection = -1.0
            for candidate in frontier:
                c = index_of[candidate]
                connection = sum(
                    weights[t]
                    for t in range(indptr[c], indptr[c + 1])
                    if labels[indices[t]] == label
                )
                if connection > best_connection:
                    best_connection = connection
                    best_key = candidate
            frontier.discard(best_key)
            best = index_of[best_key]
            if labels[best] >= 0:
                continue
            labels[best] = label
            loads[label] += vertex_weight[best]
            for t in range(indptr[best], indptr[best + 1]):
                if labels[indices[t]] < 0:
                    frontier.add(keys[indices[t]])
    for vertex, label in enumerate(labels):
        if label < 0:
            label = int(np.argmin(loads))
            labels[vertex] = label
            loads[label] += vertex_weight[vertex]
    return np.asarray(labels, dtype=np.int64)
