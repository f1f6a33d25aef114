"""Tests for the array-native vector Pregel engine.

The centerpiece is the equivalence suite: for all four applications, over
directed and undirected generator graphs and under both placements, the
vector engine must reproduce the dictionary engine exactly — final vertex
values, superstep counts, halt reasons, aggregator histories and
per-worker statistics.
"""

import numpy as np
import pytest

from repro.apps import APP_PROGRAMS, make_app_program
from repro.errors import PregelError
from repro.graph.csr import CSRGraph
from repro.graph.undirected import UndirectedGraph
from repro.pregel.master import MasterCompute
from repro.pregel.batch import BatchStep, BatchVertexProgram, Outbox
from repro.pregel.vector_coordinator import VectorPregelEngine
from repro.pregel.worker import partition_placement

from oracles import apps as oracle_apps
from oracles.engine import PregelEngine
from oracles.graphs import (
    barabasi_albert,
    run_on_digraph,
    run_on_undirected,
    shard_undirected,
    watts_strogatz,
)


def _undirected_graph():
    return watts_strogatz(60, 6, 0.3, seed=5)


def _directed_graph():
    return barabasi_albert(50, 3, seed=9, directed=True)


def _placements(num_workers):
    assignment = {v: v // 7 for v in range(200)}
    return {
        "hash": None,
        "partition": partition_placement(assignment, num_workers),
    }


def _program_kwargs(app, directed):
    # In the directed BA graph the initial vertices have no out-edges, so
    # SSSP needs a source that can actually propagate.
    return {
        "degree": {},
        "pagerank": {"num_iterations": 6},
        "sssp": {"source": 10 if directed else 0},
        "wcc": {},
    }[app]


def _run_both(app, graph, directed, placement, num_workers=3):
    dict_engine = PregelEngine(num_workers=num_workers, placement=placement)
    vector_engine = VectorPregelEngine(num_workers=num_workers, placement=placement)
    kwargs = _program_kwargs(app, directed)
    dict_program = oracle_apps.make_app_program(app, **kwargs)
    vector_program = make_app_program(app, **kwargs)
    if directed:
        dict_result = dict_engine.run_on_digraph(dict_program, graph)
        vector_result = run_on_digraph(vector_engine, vector_program, graph)
    else:
        dict_result = dict_engine.run_on_undirected(dict_program, graph)
        vector_result = run_on_undirected(vector_engine, vector_program, graph)
    return dict_result, vector_result


def _assert_equivalent(dict_result, vector_result):
    assert dict_result.num_supersteps == vector_result.num_supersteps
    assert dict_result.halt_reason == vector_result.halt_reason
    dict_values = dict_result.vertex_values()
    vector_values = vector_result.vertex_values()
    assert set(dict_values) == set(vector_values)
    for vertex_id, value in dict_values.items():
        # == treats 5 and 5.0 as equal and inf == inf holds; PageRank
        # floats must match bit for bit, not approximately.
        assert value == vector_values[vertex_id], vertex_id
    assert dict_result.aggregator_history == vector_result.aggregator_history
    assert dict_result.stats.messages_dropped == vector_result.stats.messages_dropped
    dict_steps = dict_result.stats.superstep_stats
    vector_steps = vector_result.stats.superstep_stats
    assert len(dict_steps) == len(vector_steps)
    for dict_step, vector_step in zip(dict_steps, vector_steps):
        assert dict_step.worker_stats == vector_step.worker_stats, dict_step.superstep


@pytest.mark.parametrize("placement_name", ["hash", "partition"])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("app", sorted(APP_PROGRAMS))
def test_engines_equivalent_on_generator_graphs(app, directed, placement_name):
    graph = _directed_graph() if directed else _undirected_graph()
    placement = _placements(num_workers=3)[placement_name]
    dict_result, vector_result = _run_both(app, graph, directed, placement)
    assert dict_result.num_supersteps > 1
    _assert_equivalent(dict_result, vector_result)


def test_engines_equivalent_on_csr_input():
    csr = CSRGraph.from_undirected(_undirected_graph())
    dict_engine = PregelEngine(num_workers=4)
    vector_engine = VectorPregelEngine(num_workers=4)
    dict_result = dict_engine.run(
        oracle_apps.make_app_program("pagerank", num_iterations=5),
        PregelEngine.vertices_from_csr(csr),
    )
    vector_result = vector_engine.run_on_csr(
        make_app_program("pagerank", num_iterations=5), csr
    )
    _assert_equivalent(dict_result, vector_result)
    dict_values = dict_result.vertex_values()
    assert np.array_equal(
        vector_result.values,
        np.array([dict_values[v] for v in vector_result.original_ids.tolist()]),
    )


# ----------------------------------------------------------------------
# vector-engine specific behaviour
# ----------------------------------------------------------------------


def test_vector_engine_rejects_bad_arguments():
    with pytest.raises(PregelError):
        VectorPregelEngine(num_workers=0)
    with pytest.raises(PregelError):
        VectorPregelEngine(max_supersteps=0)


def test_shard_structure_partitions_vertices_and_edges():
    graph = _undirected_graph()
    engine = VectorPregelEngine(num_workers=4)
    shard = shard_undirected(engine, graph)
    seen_vertices = np.concatenate(
        [shard.shard_vertices(w) for w in range(4)]
    )
    assert sorted(seen_vertices.tolist()) == list(range(shard.num_vertices))
    total_slots = 0
    for worker in range(4):
        sources, targets, weights = shard.send_buffer(worker)
        assert (shard.worker_of[sources] == worker).all()
        assert sources.shape == targets.shape == weights.shape
        total_slots += sources.shape[0]
    assert total_slots == 2 * graph.num_edges


class BatchMisroute(BatchVertexProgram):
    """Batch program that sends one message to a nonexistent dense id."""

    combine = "sum"

    def compute_batch(self, shard, messages, ctx):
        if ctx.superstep == 0:
            outbox = Outbox(
                np.array([0], dtype=np.int64),
                np.array([shard.num_vertices + 5], dtype=np.int64),
                np.array([1.0]),
            )
        else:  # pragma: no cover - never reached
            outbox = ctx.no_messages()
        return BatchStep(
            values=ctx.values,
            outbox=outbox,
            votes=np.ones(shard.num_vertices, dtype=bool),
        )


def test_vector_engine_unknown_target_raises_by_default():
    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = VectorPregelEngine(num_workers=2)
    with pytest.raises(PregelError, match="nonexistent"):
        run_on_undirected(engine, BatchMisroute(), graph)


def test_vector_engine_unknown_target_error_names_superstep_ids_and_remedy():
    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = VectorPregelEngine(num_workers=2)
    with pytest.raises(PregelError) as excinfo:
        run_on_undirected(engine, BatchMisroute(), graph)
    assert str(excinfo.value) == (
        "messages sent to 1 nonexistent vertex id(s) during superstep 0 "
        "(e.g. [7]); pass drop_unknown_targets=True to drop them instead"
    )


class BatchExploding(BatchVertexProgram):
    """Batch program that raises at superstep 2."""

    combine = "sum"

    def compute_batch(self, shard, messages, ctx):
        if ctx.superstep == 2:
            raise ValueError("deliberate mid-run failure")
        senders = np.ones(shard.num_vertices, dtype=bool)
        return BatchStep(
            values=ctx.values,
            outbox=ctx.send_to_all_neighbors(senders, ctx.values),
            votes=np.zeros(shard.num_vertices, dtype=bool),
        )


def test_vector_engine_program_exception_propagates():
    engine = VectorPregelEngine(num_workers=4)
    with pytest.raises(ValueError, match="deliberate mid-run failure"):
        run_on_undirected(engine, BatchExploding(), _undirected_graph())


def test_vector_engine_unknown_target_dropped_when_opted_in():
    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = VectorPregelEngine(num_workers=2, drop_unknown_targets=True)
    result = run_on_undirected(engine, BatchMisroute(), graph)
    assert result.stats.messages_dropped == 1
    assert result.num_supersteps == 1
    assert result.halt_reason == "converged"


class BatchChatterbox(BatchVertexProgram):
    """Every vertex messages itself forever."""

    combine = "sum"

    def compute_batch(self, shard, messages, ctx):
        everyone = np.arange(shard.num_vertices, dtype=np.int64)
        outbox = Outbox(everyone, everyone, np.ones(shard.num_vertices))
        return BatchStep(
            values=ctx.values,
            outbox=outbox,
            votes=np.zeros(shard.num_vertices, dtype=bool),
        )


def test_vector_engine_max_supersteps_halts_runaway_program():
    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = VectorPregelEngine(num_workers=1, max_supersteps=5)
    result = run_on_undirected(engine, BatchChatterbox(), graph)
    assert result.num_supersteps == 5
    assert result.halt_reason == "max_supersteps"


def test_vector_engine_master_can_halt():
    class HaltAtTwo(MasterCompute):
        def compute(self, superstep, aggregators):
            if superstep == 2:
                self.halt_computation()

    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = VectorPregelEngine(num_workers=1, max_supersteps=50)
    result = run_on_undirected(engine, BatchChatterbox(), graph, master=HaltAtTwo())
    assert result.num_supersteps == 2
    assert result.halt_reason == "master_halt"


def test_vector_engine_rejects_unknown_combine_mode():
    class BadCombine(BatchVertexProgram):
        combine = "median"

    graph = UndirectedGraph.from_edges([(0, 1)])
    engine = VectorPregelEngine(num_workers=1)
    with pytest.raises(PregelError, match="combine"):
        run_on_undirected(engine, BadCombine(), graph)


def test_vector_engine_simulated_time_matches_dict_engine():
    graph = _undirected_graph()
    dict_result, vector_result = _run_both(
        "pagerank", graph, directed=False, placement=None
    )
    model = dict_result.stats  # same RunStats class on both sides
    assert isinstance(vector_result.stats, type(model))
    from repro.pregel.cost_model import ClusterCostModel

    cost_model = ClusterCostModel()
    assert dict_result.simulated_time(cost_model) == pytest.approx(
        vector_result.simulated_time(cost_model)
    )
