"""Weakly connected components via label flooding.

The "CC" application of Figure 9.  Every vertex starts with its own id as
component label and repeatedly adopts the minimum label among its own and
its neighbours'; when labels stop changing each component is identified by
its smallest vertex id.
"""

from __future__ import annotations

import numpy as np

from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    ShardedGraph,
)


class BatchWeaklyConnectedComponents(BatchVertexProgram):
    """Minimum-label propagation for connected components.

    Component labels are the original vertex ids, carried as floats in the
    dense value array.
    """

    combine = "min"

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Adopt the smallest component label seen and propagate changes."""
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
