"""Per-vertex versions of the analytical applications (reference oracle).

Each class is the one-``compute``-call-per-vertex counterpart of a batch
program in :mod:`repro.apps`; on the reference engine it produces values,
aggregator histories and worker statistics bit-identical to the batch
program on the vector engine.
"""

from __future__ import annotations

import math
from typing import Any

from repro.apps.pagerank import TOTAL_RANK_AGGREGATOR, BatchPageRank
from repro.apps.sssp import BatchShortestPaths

from oracles.program import ComputeContext, VertexProgram
from oracles.vertex import Vertex


class DegreeCount(VertexProgram):
    """Compute each vertex's in+out degree.

    Superstep 0: every vertex sends a unit message along its out-edges.
    Superstep 1: every vertex sums its out-degree and the received units
    (its in-degree) into its value, then halts.
    """

    def compute(self, vertex: Vertex, messages: list[Any], ctx: ComputeContext) -> None:
        """Send one unit along every out-edge, then sum in+out degree and halt."""
        if ctx.superstep == 0:
            ctx.send_message_to_all_neighbors(vertex, 1)
            return
        vertex.value = vertex.num_edges + sum(messages)
        vertex.vote_to_halt()


class PageRank(VertexProgram):
    """Power-iteration PageRank with a fixed number of supersteps.

    Parameters are those of :class:`~repro.apps.pagerank.BatchPageRank`,
    whose validation and aggregator registration it shares.
    """

    __init__ = BatchPageRank.__init__
    register_aggregators = BatchPageRank.register_aggregators

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


class ShortestPaths(VertexProgram):
    """Bellman-Ford-style SSSP on the Pregel model.

    Parameters are those of :class:`~repro.apps.sssp.BatchShortestPaths`.
    """

    __init__ = BatchShortestPaths.__init__

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


#: app name -> per-vertex program (the keys of :data:`repro.apps.APP_PROGRAMS`)
APP_PROGRAMS = {
    "degree": DegreeCount,
    "pagerank": PageRank,
    "sssp": ShortestPaths,
    "wcc": WeaklyConnectedComponents,
}


def make_app_program(app: str, **kwargs) -> VertexProgram:
    """Instantiate the named per-vertex application."""
    return APP_PROGRAMS[app](**kwargs)
