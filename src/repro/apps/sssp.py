"""Single-source shortest paths (BFS when all edges have unit weight).

The "SP" application of Figure 9.  Distances propagate from the source
vertex; every vertex keeps the smallest distance seen so far and only
forwards improvements, so the computation converges when distances
stabilize.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.pregel.program import ComputeContext, VertexProgram
from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    Outbox,
    ShardedGraph,
)
from repro.pregel.vertex import Vertex


class ShortestPaths(VertexProgram):
    """Bellman-Ford-style SSSP on the Pregel model.

    Parameters
    ----------
    source:
        The source vertex id.
    use_edge_weights:
        When ``True`` edge values are used as distances; when ``False``
        every hop costs 1 (BFS, which is how the paper uses it).
    """

    def __init__(self, source: int, use_edge_weights: bool = False) -> None:
        self.source = source
        self.use_edge_weights = use_edge_weights

    def compute(self, vertex: Vertex, messages: list[Any], ctx: ComputeContext) -> None:
        """Relax the vertex distance from incoming messages and propagate."""
        if ctx.superstep == 0:
            vertex.value = 0.0 if vertex.vertex_id == self.source else math.inf

        smallest = min(messages) if messages else math.inf
        if ctx.superstep == 0 and vertex.vertex_id == self.source:
            smallest = 0.0

        if smallest < vertex.value or (
            ctx.superstep == 0 and vertex.vertex_id == self.source
        ):
            vertex.value = min(vertex.value, smallest)
            for target, edge_value in vertex.edges.items():
                cost = float(edge_value) if self.use_edge_weights else 1.0
                ctx.send_message(target, vertex.value + cost)
        vertex.vote_to_halt()


class BatchShortestPaths(BatchVertexProgram):
    """Array-native Bellman-Ford SSSP for the vector engine.

    Same semantics as :class:`ShortestPaths`: distances start at infinity
    (0 at the source), improvements propagate along out-edges with the
    edge weight or a unit cost, and every computed vertex votes to halt.
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
        """Whole-shard counterpart of :meth:`ShortestPaths.compute`."""
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
