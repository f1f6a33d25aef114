"""Single-source shortest paths (BFS when all edges have unit weight).

The "SP" application of Figure 9.  Distances propagate from the source
vertex; every vertex keeps the smallest distance seen so far and only
forwards improvements, so the computation converges when distances
stabilize.
"""

from __future__ import annotations

import numpy as np

from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    Outbox,
    ShardedGraph,
)


class BatchShortestPaths(BatchVertexProgram):
    """Bellman-Ford-style SSSP on the Pregel model.

    Distances start at infinity (0 at the source), improvements propagate
    along out-edges with the edge weight or a unit cost, and every
    computed vertex votes to halt.

    Parameters
    ----------
    source:
        The source vertex id.
    use_edge_weights:
        When ``True`` edge values are used as distances; when ``False``
        every hop costs 1 (BFS, which is how the paper uses it).
    """

    combine = "min"

    def __init__(self, source: int, use_edge_weights: bool = False) -> None:
        self.source = source
        self.use_edge_weights = use_edge_weights

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Relax distances from incoming messages and propagate improvements."""
        num_vertices = shard.num_vertices
        is_source_start = np.zeros(num_vertices, dtype=bool)
        if ctx.superstep == 0:
            values = np.full(num_vertices, np.inf, dtype=np.float64)
            is_source_start[shard.original_ids == self.source] = True
            values[is_source_start] = 0.0
        else:
            values = ctx.values

        smallest = np.where(messages.has_message, messages.payload, np.inf)
        smallest[is_source_start] = 0.0

        improved = ctx.computed & ((smallest < values) | is_source_start)
        values = np.where(improved, np.minimum(values, smallest), values)

        edge_sources, edge_targets, edge_weights = ctx.edges_from(improved)
        if self.use_edge_weights:
            costs = edge_weights.astype(np.float64)
        else:
            costs = np.ones(edge_sources.shape[0], dtype=np.float64)
        outbox = Outbox(edge_sources, edge_targets, values[edge_sources] + costs)
        votes = np.ones(num_vertices, dtype=bool)
        return BatchStep(values=values, outbox=outbox, votes=votes)
