"""Weakly connected components via label flooding.

The "CC" application of Figure 9.  Every vertex starts with its own id as
component label and repeatedly adopts the minimum label among its own and
its neighbours'; when labels stop changing each component is identified by
its smallest vertex id.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.pregel.program import ComputeContext, VertexProgram
from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    ShardedGraph,
)
from repro.pregel.vertex import Vertex


class WeaklyConnectedComponents(VertexProgram):
    """Minimum-label propagation for connected components."""

    def compute(self, vertex: Vertex, messages: list[Any], ctx: ComputeContext) -> None:
        """Adopt the smallest component label seen and propagate changes."""
        if ctx.superstep == 0:
            vertex.value = vertex.vertex_id
            ctx.send_message_to_all_neighbors(vertex, vertex.value)
            vertex.vote_to_halt()
            return

        smallest = min(messages) if messages else vertex.value
        if smallest < vertex.value:
            vertex.value = smallest
            ctx.send_message_to_all_neighbors(vertex, vertex.value)
        vertex.vote_to_halt()


class BatchWeaklyConnectedComponents(BatchVertexProgram):
    """Array-native minimum-label propagation for the vector engine.

    Component labels are the original vertex ids (carried as floats in the
    dense value array), exactly like :class:`WeaklyConnectedComponents`.
    """

    combine = "min"

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Whole-shard counterpart of :meth:`WeaklyConnectedComponents.compute`."""
        votes = np.ones(shard.num_vertices, dtype=bool)
        if ctx.superstep == 0:
            values = shard.original_ids.astype(np.float64)
            outbox = ctx.send_to_all_neighbors(ctx.computed, values)
            return BatchStep(values=values, outbox=outbox, votes=votes)

        smallest = np.where(messages.has_message, messages.payload, ctx.values)
        improved = ctx.computed & (smallest < ctx.values)
        values = np.where(improved, smallest, ctx.values)
        outbox = ctx.send_to_all_neighbors(improved, values)
        return BatchStep(values=values, outbox=outbox, votes=votes)
