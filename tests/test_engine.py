"""Tests for the per-vertex reference Pregel engine and its applications."""

import math

import pytest

from repro.apps.pagerank import TOTAL_RANK_AGGREGATOR
from repro.errors import PregelError
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph
from repro.pregel.cost_model import ClusterCostModel
from repro.pregel.master import MasterCompute

from oracles.apps import DegreeCount, PageRank, ShortestPaths, WeaklyConnectedComponents
from oracles.engine import PregelEngine
from oracles.program import VertexProgram


def line_graph(n=6):
    return UndirectedGraph.from_edges([(i, i + 1) for i in range(n - 1)])


def test_engine_rejects_bad_arguments():
    with pytest.raises(PregelError):
        PregelEngine(num_workers=0)
    with pytest.raises(PregelError):
        PregelEngine(max_supersteps=0)


def test_degree_count_on_digraph():
    graph = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)])
    engine = PregelEngine(num_workers=2)
    result = engine.run_on_digraph(DegreeCount(), graph)
    values = result.vertex_values()
    # in+out degree: vertex 2 has two incoming edges and none outgoing.
    assert values[0] == 2
    assert values[1] == 2
    assert values[2] == 2
    assert result.halt_reason == "converged"


def test_sssp_distances_on_line():
    graph = line_graph(6)
    engine = PregelEngine(num_workers=3)
    result = engine.run_on_undirected(ShortestPaths(source=0), graph)
    values = result.vertex_values()
    assert values == {i: float(i) for i in range(6)}


def test_sssp_unreachable_vertices_stay_infinite():
    graph = UndirectedGraph.from_edges([(0, 1)], num_vertices=3)
    engine = PregelEngine(num_workers=2)
    result = engine.run_on_undirected(ShortestPaths(source=0), graph)
    assert result.vertex_values()[2] == math.inf


def test_wcc_labels_components():
    graph = UndirectedGraph.from_edges([(0, 1), (1, 2), (5, 6)], num_vertices=8)
    engine = PregelEngine(num_workers=2)
    result = engine.run_on_undirected(WeaklyConnectedComponents(), graph)
    values = result.vertex_values()
    assert values[0] == values[1] == values[2] == 0
    assert values[5] == values[6] == 5
    assert values[7] == 7


def test_pagerank_total_mass_is_conserved():
    graph = UndirectedGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    engine = PregelEngine(num_workers=2)
    result = engine.run_on_undirected(PageRank(num_iterations=15), graph)
    total = sum(result.vertex_values().values())
    assert total == pytest.approx(graph.num_vertices, rel=0.05)
    assert result.aggregators.value(TOTAL_RANK_AGGREGATOR) == pytest.approx(total)


def test_max_supersteps_halts_runaway_program():
    class Chatterbox(VertexProgram):
        def compute(self, vertex, messages, ctx):
            ctx.send_message(vertex.vertex_id, "again")

    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = PregelEngine(num_workers=1, max_supersteps=5)
    result = engine.run_on_undirected(Chatterbox(), graph)
    assert result.num_supersteps == 5
    assert result.halt_reason == "max_supersteps"


def test_master_can_halt_computation():
    class HaltAtTwo(MasterCompute):
        def compute(self, superstep, aggregators):
            if superstep == 2:
                self.halt_computation()

    class Chatterbox(VertexProgram):
        def compute(self, vertex, messages, ctx):
            ctx.send_message(vertex.vertex_id, "again")

    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = PregelEngine(num_workers=1, max_supersteps=50)
    result = engine.run_on_undirected(Chatterbox(), graph, master=HaltAtTwo())
    assert result.num_supersteps == 2
    assert result.halt_reason == "master_halt"


def test_local_vs_remote_message_accounting():
    # Two vertices on the same worker exchange local messages; placing them
    # on different workers turns the same traffic into remote messages.
    graph = UndirectedGraph.from_edges([(0, 1)])
    same = PregelEngine(num_workers=2, placement=lambda v: 0)
    split = PregelEngine(num_workers=2, placement=lambda v: v % 2)
    result_same = same.run_on_undirected(DegreeCount(), graph)
    result_split = split.run_on_undirected(DegreeCount(), graph)
    assert result_same.stats.remote_messages == 0
    assert result_split.stats.remote_messages == result_split.stats.total_messages
    assert result_same.stats.total_messages == result_split.stats.total_messages


def test_simulated_time_decreases_with_more_workers():
    graph = line_graph(60)
    model = ClusterCostModel(remote_message_cost=0.0, local_message_cost=0.0)
    slow = PregelEngine(num_workers=1, cost_model=model)
    fast = PregelEngine(num_workers=4, cost_model=model)
    time_slow = slow.run_on_undirected(PageRank(5), graph).simulated_time(model)
    time_fast = fast.run_on_undirected(PageRank(5), graph).simulated_time(model)
    assert time_fast < time_slow


def test_aggregator_history_recorded():
    graph = line_graph(5)
    engine = PregelEngine(num_workers=2)
    result = engine.run_on_undirected(PageRank(num_iterations=3), graph)
    history = result.aggregator_history[TOTAL_RANK_AGGREGATOR]
    assert len(history) == result.num_supersteps


class StoreProbe(VertexProgram):
    """Writes a worker-store key only in superstep 0, reads it afterwards."""

    def __init__(self):
        self.leaked_values = []

    def compute(self, vertex, messages, ctx):
        if ctx.superstep == 0:
            ctx.worker_store["superstep0_marker"] = vertex.vertex_id
            ctx.send_message(vertex.vertex_id, 1)
        else:
            self.leaked_values.append(ctx.worker_store.get("superstep0_marker"))
            vertex.vote_to_halt()


def test_shared_store_cleared_before_every_superstep():
    # Regression: the engine never cleared Worker.shared_store, so state
    # written in superstep 0 leaked into every later superstep.
    graph = UndirectedGraph.from_edges([(0, 1), (1, 2)])
    program = StoreProbe()
    PregelEngine(num_workers=2).run_on_undirected(program, graph)
    assert program.leaked_values  # superstep 1 ran
    assert program.leaked_values == [None] * len(program.leaked_values)


class Misroute(VertexProgram):
    """Sends a message to a vertex id that does not exist."""

    def compute(self, vertex, messages, ctx):
        if ctx.superstep == 0:
            ctx.send_message(999, "lost")
        vertex.vote_to_halt()


def test_unknown_message_target_raises_by_default():
    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = PregelEngine(num_workers=2)
    with pytest.raises(PregelError, match="nonexistent"):
        engine.run_on_undirected(Misroute(), graph)


def test_unknown_message_target_dropped_when_opted_in():
    # Regression: silently-kept unknown-target messages defeated the
    # incoming.is_empty() convergence check, costing an extra superstep.
    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = PregelEngine(num_workers=2, drop_unknown_targets=True)
    result = engine.run_on_undirected(Misroute(), graph)
    assert result.stats.messages_dropped == 2  # one per vertex
    assert result.num_supersteps == 1  # no phantom superstep
    assert result.halt_reason == "converged"
    # Unknown targets still count as remote traffic at send time.
    assert result.stats.remote_messages == 2


def test_known_targets_unaffected_by_drop_option():
    graph = UndirectedGraph.from_edges([(0, 1)])
    strict = PregelEngine(num_workers=2)
    lenient = PregelEngine(num_workers=2, drop_unknown_targets=True)
    result_strict = strict.run_on_undirected(DegreeCount(), graph)
    result_lenient = lenient.run_on_undirected(DegreeCount(), graph)
    assert result_strict.vertex_values() == result_lenient.vertex_values()
    assert result_lenient.stats.messages_dropped == 0
