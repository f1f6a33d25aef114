"""Degree counting — the smallest useful vertex program.

Used by the quickstart example and by engine tests as a minimal program
with one message exchange.
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


class BatchDegreeCount(BatchVertexProgram):
    """Compute each vertex's in+out degree.

    Superstep 0: every vertex sends a unit message along its out-edges.
    Superstep 1: every vertex sums its out-degree and the received units
    (its in-degree) into its value, then halts.
    """

    combine = "sum"

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Send one unit along every out-edge, then sum in+out degree and halt."""
        if ctx.superstep == 0:
            outbox = ctx.send_to_all_neighbors(
                ctx.computed, np.ones(shard.num_vertices, dtype=np.float64)
            )
            votes = np.zeros(shard.num_vertices, dtype=bool)
            return BatchStep(values=ctx.values, outbox=outbox, votes=votes)

        values = np.where(ctx.computed, shard.degrees + messages.payload, ctx.values)
        votes = np.ones(shard.num_vertices, dtype=bool)
        return BatchStep(values=values, outbox=ctx.no_messages(), votes=votes)
