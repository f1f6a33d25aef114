"""PageRank as a Pregel vertex program.

The fixed-iteration PageRank used in the paper's load-balance experiment
(Table IV runs 20 iterations on the Twitter graph) and in the application
runtime comparison (Figure 9).
"""

from __future__ import annotations

import numpy as np

from repro.pregel.aggregators import AggregatorRegistry, DoubleSumAggregator
from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    ShardedGraph,
)

#: Aggregator holding the sum of all PageRank values (sanity check: ~ |V|).
TOTAL_RANK_AGGREGATOR = "pagerank_total"


class BatchPageRank(BatchVertexProgram):
    """Power-iteration PageRank with a fixed number of supersteps.

    Parameters
    ----------
    num_iterations:
        Number of rank-update supersteps (the paper uses 20).
    damping:
        Damping factor ``d`` of the PageRank recurrence.
    """

    combine = "sum"

    def __init__(self, num_iterations: int = 20, damping: float = 0.85) -> None:
        if num_iterations < 1:
            raise ValueError("num_iterations must be at least 1")
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must lie strictly between 0 and 1")
        self.num_iterations = num_iterations
        self.damping = damping

    def register_aggregators(self, aggregators: AggregatorRegistry) -> None:
        """Register the total-rank sanity aggregator."""
        aggregators.register(TOTAL_RANK_AGGREGATOR, DoubleSumAggregator())

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """One PageRank power-iteration step for every computed vertex."""
        computed = ctx.computed
        if ctx.superstep == 0:
            values = np.where(computed, 1.0, ctx.values)
        else:
            updated = (1.0 - self.damping) + self.damping * messages.payload
            values = np.where(computed, updated, ctx.values)
        ctx.aggregate_sequential(TOTAL_RANK_AGGREGATOR, values, computed)

        if ctx.superstep < self.num_iterations:
            senders = computed & (shard.degrees > 0)
            shares = np.divide(
                values,
                shard.degrees,
                out=np.zeros(shard.num_vertices, dtype=np.float64),
                where=shard.degrees > 0,
            )
            outbox = ctx.send_to_all_neighbors(senders, shares)
            votes = np.zeros(shard.num_vertices, dtype=bool)
        else:
            outbox = ctx.no_messages()
            votes = np.ones(shard.num_vertices, dtype=bool)
        return BatchStep(values=values, outbox=outbox, votes=votes)
