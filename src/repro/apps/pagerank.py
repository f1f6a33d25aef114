"""PageRank as a Pregel vertex program.

The fixed-iteration PageRank used in the paper's load-balance experiment
(Table IV runs 20 iterations on the Twitter graph) and in the application
runtime comparison (Figure 9).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.pregel.aggregators import AggregatorRegistry, DoubleSumAggregator
from repro.pregel.program import ComputeContext, VertexProgram
from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    ShardedGraph,
)
from repro.pregel.vertex import Vertex

#: Aggregator holding the sum of all PageRank values (sanity check: ~ |V|).
TOTAL_RANK_AGGREGATOR = "pagerank_total"


class PageRank(VertexProgram):
    """Power-iteration PageRank with a fixed number of supersteps.

    Parameters
    ----------
    num_iterations:
        Number of rank-update supersteps (the paper uses 20).
    damping:
        Damping factor ``d`` of the PageRank recurrence.
    """

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

    def compute(self, vertex: Vertex, messages: list[Any], ctx: ComputeContext) -> None:
        """One PageRank power-iteration step for a single vertex."""
        if ctx.superstep == 0:
            vertex.value = 1.0
        else:
            incoming = sum(messages)
            vertex.value = (1.0 - self.damping) + self.damping * incoming
        ctx.aggregate(TOTAL_RANK_AGGREGATOR, vertex.value)

        if ctx.superstep < self.num_iterations:
            if vertex.num_edges:
                share = vertex.value / vertex.num_edges
                ctx.send_message_to_all_neighbors(vertex, share)
        else:
            vertex.vote_to_halt()


class BatchPageRank(BatchVertexProgram):
    """Array-native PageRank for the vector engine.

    Same recurrence, aggregator and halting behaviour as :class:`PageRank`,
    computed for all vertices of a shard at once; runs on the two engines
    produce bit-identical values and aggregator histories.
    """

    combine = "sum"

    # Shared with the per-vertex variant so parameter validation and
    # aggregator registration cannot silently diverge between the two
    # contractually bit-equivalent implementations.
    __init__ = PageRank.__init__
    register_aggregators = PageRank.register_aggregators

    def compute_batch(
        self,
        shard: ShardedGraph,
        messages: DeliveredMessages,
        ctx: BatchComputeContext,
    ) -> BatchStep:
        """Whole-shard counterpart of :meth:`PageRank.compute`."""
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
