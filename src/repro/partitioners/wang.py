"""The Wang et al. partitioner (ICDE 2014): LPA coarsening + METIS.

The "Wang et al." row of Table I.  The approach ("How to Partition a
Billion-Node Graph") first shrinks the graph by running a size-bounded
label propagation that groups vertices into small communities, contracts
each community into a super-vertex, partitions the coarse graph with METIS
*balancing on vertex count*, and finally projects the coarse assignment
back to the original vertices.

Two properties of the original are deliberately preserved because the
Spinner paper calls them out:

* the method balances the number of *vertices*, not edges, so on skewed
  graphs its edge-load balance ``rho`` is poor (Table I shows values up to
  2.6), and
* the coarsening can hide cut edges inside communities whose members end
  up split anyway, giving lower locality than Spinner for large ``k``.

The expensive stage — the label-propagation sweeps over the full graph —
runs as a chunked CSR kernel (:meth:`WangPartitioner.partition_array`)
that is assignment-exact with the per-vertex dictionary loop the test
suite keeps as its reference.  Vertices are iterated and coarse edges
contracted in canonical ascending order, so the result depends only on
the graph and the seed.  The community graph goes straight, as arrays,
to the multilevel driver of :mod:`repro.partitioners.metis`, with the
community sizes as its vertex weights.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner
from repro.partitioners.csr_stream import (
    DEFAULT_CHUNK,
    gather_chunk,
    rowwise_sparse_counts,
)
from repro.partitioners.metis import Level, MetisLikePartitioner, merge_parallel_edges


class WangPartitioner(Partitioner):
    """LPA coarsening followed by a METIS-style partitioning of the
    coarse graph, balanced on vertex count.

    Parameters
    ----------
    max_community_fraction:
        Upper bound on a community's size as a fraction of ``n / k``;
        bounding community size keeps the coarse graph partitionable.
    lpa_iterations:
        Number of size-bounded label-propagation sweeps used to coarsen.
    seed:
        Seed for the label-propagation order.
    """

    name = "wang"

    def __init__(
        self,
        max_community_fraction: float = 0.5,
        lpa_iterations: int = 5,
        seed: int | None = 0,
    ) -> None:
        if max_community_fraction <= 0:
            raise ValueError("max_community_fraction must be positive")
        self.max_community_fraction = max_community_fraction
        self.lpa_iterations = lpa_iterations
        self.seed = seed

    # ------------------------------------------------------------------
    def _max_community_size(self, num_vertices: int, num_partitions: int) -> int:
        return max(
            2,
            int(self.max_community_fraction * num_vertices / max(num_partitions, 1)),
        )

    # ------------------------------------------------------------------
    def partition_array(
        self, graph: CSRGraph, num_partitions: int, chunk: int = DEFAULT_CHUNK
    ) -> np.ndarray:
        """Coarsen with LPA, then partition the communities METIS-style.

        The LPA sweeps run on the chunked CSR machinery; the contraction
        and the final projection are single vectorized passes.  On top of
        the chunked gathers the kernel skips vertices that provably cannot
        move: a vertex needs re-evaluation only if a neighbour changed
        community since its last evaluation or its last attempted move was
        blocked by the community size bound (the bound may have freed up
        since).  Because skipped evaluations could not have changed any
        state, the skip is assignment-exact.

        The dictionary oracle cannot represent self-loops or non-positive
        edge weights (its graph type rejects both), so the kernel treats
        such entries as absent: a graph containing either is rebuilt
        without them before partitioning, which keeps the result
        consistent with the equivalent clean graph.

        Accepts graphs on either storage tier (the mmap tier's arrays are
        byte-identical, so the assignments are too), but unlike LDG and
        Fennel this kernel materializes the edge arrays internally — the
        LPA sweeps consult arbitrary adjacency lists every round, so it
        does not run at ``O(chunk)`` memory on the mmap tier.
        """
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        sources, targets, weights = graph.edge_array()
        has_nonpositive = weights.shape[0] and int(weights.min()) <= 0
        has_self_loops = bool((sources == targets).any())
        if has_nonpositive or has_self_loops:
            keep = (sources < targets) & (weights > 0)
            clean = CSRGraph.from_edge_list(
                np.stack([sources[keep], targets[keep]], axis=1),
                n,
                weights=weights[keep],
            )
            return self.partition_array(clean, num_partitions, chunk)
        community = self._coarsen_with_lpa(graph, num_partitions, chunk)

        # Contract communities into super-vertices (vectorized): one edge
        # per crossing community pair in ascending order, summed weights.
        community_ids, dense = np.unique(community, return_inverse=True)
        num_communities = int(community_ids.shape[0])
        forward = sources < targets
        cu = dense[sources[forward]]
        cv = dense[targets[forward]]
        crossing = cu != cv
        lo, hi, pair_weights, _ = merge_parallel_edges(
            cu[crossing], cv[crossing], weights[forward][crossing], num_communities
        )
        # METIS balances the number of original vertices per partition —
        # the vertex balance of Wang et al.
        sizes = np.bincount(dense, minlength=num_communities).astype(np.float64)
        coarse = Level.from_edges(lo, hi, pair_weights, sizes, np.arange(num_communities))
        coarse_labels = MetisLikePartitioner(seed=self.seed).multilevel(
            coarse, num_partitions
        )
        return coarse_labels[dense]

    # ------------------------------------------------------------------
    def _coarsen_with_lpa(
        self, graph: CSRGraph, num_partitions: int, chunk: int
    ) -> np.ndarray:
        """Size-bounded LPA on CSR arrays, bit-exact with the oracle sweeps."""
        n = graph.num_vertices
        indptr, indices = graph.indptr, graph.indices
        weights_f = graph.weights.astype(np.float64)
        indptr_l = indptr.tolist()
        indices_l = indices.tolist()
        weights_l = weights_f.tolist()
        rng = np.random.default_rng(self.seed)
        community = np.arange(n, dtype=np.int64)
        community_l = community.tolist()
        sizes = [1] * n
        max_size = self._max_community_size(n, num_partitions)
        vertices = list(range(n))
        needs_eval = np.ones(n, dtype=bool)
        # Per-chunk bookkeeping: chunk position of every chunk member, and
        # the gathered-row index of the members selected for evaluation.
        position_of = np.full(n, -1, dtype=np.int64)
        gathered_row_of = np.full(n, -1, dtype=np.int64)

        for _ in range(self.lpa_iterations):
            rng.shuffle(vertices)
            moved = 0
            order = np.asarray(vertices, dtype=np.int64)
            for start in range(0, n, chunk):
                window = order[start : start + chunk]
                selected = needs_eval[window]
                gathered = window[selected]
                num_rows = gathered.shape[0]
                if num_rows:
                    rows, neighbors, wts = gather_chunk(
                        indptr, indices, weights_f, gathered
                    )
                    row_starts, cand_labels, cand_sums, row_best = rowwise_sparse_counts(
                        rows, community[neighbors], wts, num_rows, n
                    )
                    position_of[window] = np.arange(window.shape[0])
                    gathered_row_of[gathered] = np.arange(num_rows)
                    # Intra-chunk links, grouped by the *earlier* endpoint's
                    # gathered row: when that endpoint moves, the later
                    # endpoint either gets its snapshot counts patched (if
                    # it was gathered) or is flagged for the fallback path.
                    window_positions = np.flatnonzero(selected)
                    neighbor_window_pos = position_of[neighbors]
                    in_chunk_later = neighbor_window_pos > window_positions[rows]
                    link_rows = rows[in_chunk_later].tolist()
                    link_targets = neighbors[in_chunk_later].tolist()
                    link_target_rows = gathered_row_of[
                        neighbors[in_chunk_later]
                    ].tolist()
                    link_weights = wts[in_chunk_later].tolist()
                else:
                    row_starts, row_best = [0], []
                    cand_labels = cand_sums = np.empty(0)
                    link_rows, link_targets, link_target_rows, link_weights = [], [], [], []

                patches: dict[int, dict[int, float]] = {}
                newly_dirty: set[int] = set()
                moved_vertices: list[int] = []
                moved_labels: list[int] = []
                link_index = 0
                num_links = len(link_rows)
                row = 0
                for vertex, was_selected in zip(window.tolist(), selected.tolist()):
                    if was_selected:
                        this_row = row
                        row += 1
                        pending = patches.pop(this_row, None)
                        if pending is None:
                            best = row_best[this_row]
                            if best < 0:
                                # No neighbours: never re-evaluate.
                                needs_eval[vertex] = False
                                while link_index < num_links and link_rows[link_index] == this_row:
                                    link_index += 1
                                continue
                        else:
                            lo, hi = row_starts[this_row], row_starts[this_row + 1]
                            merged = dict(
                                zip(cand_labels[lo:hi].tolist(), cand_sums[lo:hi].tolist())
                            )
                            for label, delta in pending.items():
                                merged[label] = merged.get(label, 0.0) + delta
                            # Highest patched sum, ties to the smallest label
                            # (label propagation's rule) — iteration order of
                            # the dict is irrelevant to this total order.
                            best = -1
                            best_sum = 0.0
                            for label, value in merged.items():
                                if value > best_sum or (value == best_sum and label < best):
                                    best_sum = value
                                    best = label
                            if best < 0:
                                needs_eval[vertex] = False
                                while link_index < num_links and link_rows[link_index] == this_row:
                                    link_index += 1
                                continue
                    else:
                        if vertex not in newly_dirty:
                            continue
                        # Dirtied by a move earlier in this same chunk after
                        # the gather: evaluate from the live arrays.
                        lo, hi = indptr_l[vertex], indptr_l[vertex + 1]
                        if lo == hi:
                            continue
                        fallback: dict[int, float] = {}
                        for t in range(lo, hi):
                            label = community_l[indices_l[t]]
                            fallback[label] = fallback.get(label, 0.0) + weights_l[t]
                        best = -1
                        best_sum = 0.0
                        for label, value in fallback.items():
                            if value > best_sum or (value == best_sum and label < best):
                                best_sum = value
                                best = label
                        this_row = -1
                    current = community_l[vertex]
                    if best == current:
                        needs_eval[vertex] = False
                        if this_row >= 0:
                            while link_index < num_links and link_rows[link_index] == this_row:
                                link_index += 1
                        continue
                    if sizes[best] >= max_size:
                        # Size-blocked: stays flagged so the next sweep
                        # re-evaluates it (the bound may have freed up).
                        needs_eval[vertex] = True
                        if this_row >= 0:
                            while link_index < num_links and link_rows[link_index] == this_row:
                                link_index += 1
                        continue
                    needs_eval[vertex] = False
                    community_l[vertex] = best
                    sizes[best] += 1
                    sizes[current] -= 1
                    moved += 1
                    moved_vertices.append(vertex)
                    moved_labels.append(best)
                    if this_row >= 0:
                        # Patch later chunk members that saw the snapshot.
                        while link_index < num_links and link_rows[link_index] == this_row:
                            target_row = link_target_rows[link_index]
                            if target_row >= 0:
                                delta = patches.setdefault(target_row, {})
                                w0 = link_weights[link_index]
                                delta[current] = delta.get(current, 0.0) - w0
                                delta[best] = delta.get(best, 0.0) + w0
                            else:
                                newly_dirty.add(link_targets[link_index])
                            link_index += 1
                    else:
                        # Fallback move: flag in-chunk later neighbours.
                        for t in range(indptr_l[vertex], indptr_l[vertex + 1]):
                            neighbor = indices_l[t]
                            if position_of[neighbor] >= 0:
                                target_row = gathered_row_of[neighbor]
                                if target_row >= row:
                                    delta = patches.setdefault(int(target_row), {})
                                    w0 = weights_l[t]
                                    delta[current] = delta.get(current, 0.0) - w0
                                    delta[best] = delta.get(best, 0.0) + w0
                                else:
                                    newly_dirty.add(neighbor)
                position_of[window] = -1
                gathered_row_of[gathered] = -1
                if moved_vertices:
                    moved_arr = np.asarray(moved_vertices, dtype=np.int64)
                    # Sync the NumPy label view (the scalar loop only wrote
                    # the Python mirror) before the next chunk's gather.
                    community[moved_arr] = np.asarray(moved_labels, dtype=np.int64)
                    _, touched, _ = gather_chunk(indptr, indices, None, moved_arr)
                    needs_eval[touched] = True
            if moved == 0:
                break
        return community
