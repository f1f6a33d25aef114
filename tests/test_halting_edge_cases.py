"""Halting edge cases, pinned for both runtimes.

The run loop checks, in order: ``max_supersteps``, master halt, Pregel
convergence (all vertices halted and no messages in flight).  These tests
pin the halt reason, superstep count and final statistics for the corner
cases where two of those conditions race.
"""

import numpy as np
import pytest

from repro.graph.undirected import UndirectedGraph
from repro.pregel import (
    BatchStep,
    BatchVertexProgram,
    MasterCompute,
    Outbox,
    VectorPregelEngine,
)

from oracles.engine import PregelEngine
from oracles.graphs import run_on_undirected
from oracles.program import VertexProgram

NUM_VERTICES = 6


def graph() -> UndirectedGraph:
    return UndirectedGraph.from_edges([(i, (i + 1) % NUM_VERTICES) for i in range(NUM_VERTICES)])


class SelfPing(VertexProgram):
    """Every vertex messages itself forever and never votes to halt."""

    def compute(self, vertex, messages, ctx):
        ctx.send_message(vertex.vertex_id, 1.0)


class BatchSelfPing(BatchVertexProgram):
    combine = "sum"

    def compute_batch(self, shard, messages, ctx):
        everyone = np.arange(shard.num_vertices, dtype=np.int64)
        outbox = Outbox(everyone, everyone, np.ones(shard.num_vertices))
        return BatchStep(
            values=ctx.values,
            outbox=outbox,
            votes=np.zeros(shard.num_vertices, dtype=bool),
        )


class QuietQuit(VertexProgram):
    """Every vertex votes to halt immediately without sending anything."""

    def compute(self, vertex, messages, ctx):
        vertex.vote_to_halt()


class BatchQuietQuit(BatchVertexProgram):
    combine = "sum"

    def compute_batch(self, shard, messages, ctx):
        return BatchStep(
            values=ctx.values,
            outbox=ctx.no_messages(),
            votes=np.ones(shard.num_vertices, dtype=bool),
        )


class HaltAt(MasterCompute):
    def __init__(self, superstep: int) -> None:
        super().__init__()
        self._halt_at = superstep

    def compute(self, superstep, aggregators):
        if superstep == self._halt_at:
            self.halt_computation()


def run(engine_kind: str, program_pair: str, max_supersteps: int, master=None):
    if engine_kind == "dict":
        engine = PregelEngine(num_workers=2, max_supersteps=max_supersteps)
        program = SelfPing() if program_pair == "ping" else QuietQuit()
        return engine.run_on_undirected(program, graph(), master=master)
    engine = VectorPregelEngine(num_workers=2, max_supersteps=max_supersteps)
    program = BatchSelfPing() if program_pair == "ping" else BatchQuietQuit()
    return run_on_undirected(engine, program, graph(), master=master)


# ----------------------------------------------------------------------
# max_supersteps cuts off a run with messages still in flight
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_max_supersteps_with_messages_in_flight(engine_kind):
    result = run(engine_kind, "ping", max_supersteps=4)
    assert result.halt_reason == "max_supersteps"
    assert result.num_supersteps == 4
    stats = result.stats
    assert [s.superstep for s in stats.superstep_stats] == [0, 1, 2, 3]
    # Every superstep computed every vertex and sent one self-message per
    # vertex; the last batch is still in flight when the cutoff hits.
    for s in stats.superstep_stats:
        assert sum(w.vertices_computed for w in s.worker_stats) == NUM_VERTICES
        sent = sum(
            w.local_messages_sent + w.remote_messages_sent for w in s.worker_stats
        )
        assert sent == NUM_VERTICES
    assert stats.total_messages == 4 * NUM_VERTICES
    # Self-messages never cross a worker boundary.
    assert stats.remote_messages == 0


def test_max_supersteps_cutoff_agrees_across_engines():
    dict_result = run("dict", "ping", max_supersteps=5)
    vector_result = run("vector", "ping", max_supersteps=5)
    assert dict_result.halt_reason == vector_result.halt_reason == "max_supersteps"
    assert dict_result.num_supersteps == vector_result.num_supersteps == 5
    assert dict_result.stats.superstep_stats == vector_result.stats.superstep_stats


# ----------------------------------------------------------------------
# master halt racing vote-to-halt convergence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_master_halt_wins_race_with_convergence(engine_kind):
    # All vertices voted to halt during superstep 0 and nothing is in
    # flight, so superstep 1 would declare convergence — but the master
    # runs first and its halt takes precedence.
    result = run(engine_kind, "quit", max_supersteps=50, master=HaltAt(1))
    assert result.halt_reason == "master_halt"
    assert result.num_supersteps == 1
    assert len(result.stats.superstep_stats) == 1


@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_convergence_wins_when_master_halts_later(engine_kind):
    # The master would halt at superstep 2, but the run converges at the
    # superstep-1 check and the master never gets to fire.
    result = run(engine_kind, "quit", max_supersteps=50, master=HaltAt(2))
    assert result.halt_reason == "converged"
    assert result.num_supersteps == 1


@pytest.mark.parametrize("engine_kind", ["dict", "vector"])
def test_max_supersteps_wins_race_with_master_halt(engine_kind):
    # The cutoff check runs before master.compute, so a master that would
    # halt exactly at the cutoff superstep never executes.
    result = run(engine_kind, "ping", max_supersteps=3, master=HaltAt(3))
    assert result.halt_reason == "max_supersteps"
    assert result.num_supersteps == 3
