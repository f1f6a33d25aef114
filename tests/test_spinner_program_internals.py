"""Superstep-level tests for the Spinner vertex program internals.

These drive the Pregel implementation with bounded iteration counts and
inspect the intermediate state the paper describes: the in-engine graph
conversion (NeighborPropagation / NeighborDiscovery), the load aggregators
and the per-worker asynchronous deltas.
"""

import pytest

from repro.core.config import SpinnerConfig
from repro.core.program import (
    MIGRATIONS_AGGREGATOR,
    SCORE_AGGREGATOR,
    SpinnerMasterCompute,
    candidate_aggregator_name,
    load_aggregator_name,
)
from repro.core.spinner import SpinnerPartitioner
from repro.graph.digraph import DiGraph
from repro.pregel.aggregators import AggregatorRegistry

from oracles.engine import PregelEngine
from oracles.graphs import spinner_input
from oracles.spinner import WORKER_LOAD_DELTA_KEY, SpinnerProgram, SpinnerVertexValue


def run_spinner_vertices(graph, num_partitions, initial, max_iterations=2, num_workers=1):
    """Run the Spinner program and return the raw Pregel vertices."""
    config = SpinnerConfig(seed=0, max_iterations=max_iterations, halt_window=max_iterations)
    program = SpinnerProgram(num_partitions, config, convert_directed=True)
    engine = PregelEngine(num_workers=num_workers, max_supersteps=program.superstep_bound())
    vertices = engine.vertices_from_digraph(
        graph,
        vertex_value=lambda v: SpinnerVertexValue(initial[v]),
        edge_value=lambda s, t: [1, None],
    )
    master = SpinnerMasterCompute(program)
    result = engine.run(program, vertices, master=master)
    return vertices, result, master


def test_in_engine_conversion_builds_weighted_undirected_adjacency(small_directed):
    initial = {v: 0 for v in small_directed.vertices()}
    vertices, _result, _master = run_spinner_vertices(small_directed, 2, initial)
    # Reciprocal pair (0, 1): both endpoints hold an edge of weight 2.
    assert vertices[0].edges[1][0] == 2
    assert vertices[1].edges[0][0] == 2
    # One-directional edge (1, 2): both endpoints know it with weight 1.
    assert vertices[1].edges[2][0] == 1
    assert vertices[2].edges[1][0] == 1
    # Weighted degree equals the number of directed messages of the vertex:
    # vertex 1 has the reciprocal pair with 0 (weight 2) and one single
    # direction edge with 2 (weight 1).
    assert vertices[1].value.weighted_degree == pytest.approx(3.0)


def test_neighbour_labels_are_learned_after_initialization(small_directed):
    initial = {v: v % 2 for v in small_directed.vertices()}
    vertices, _result, _master = run_spinner_vertices(small_directed, 2, initial)
    # After at least one ComputeScores superstep every edge value carries a
    # neighbour label (it may be stale by one iteration, but never None).
    for vertex in vertices.values():
        for _target, (weight, label) in vertex.edges.items():
            assert weight in (1, 2)
            assert label is not None


def test_load_aggregators_track_total_degree(small_directed):
    initial = {v: 0 for v in small_directed.vertices()}
    _vertices, result, _master = run_spinner_vertices(small_directed, 2, initial)
    loads = [result.aggregators.value(load_aggregator_name(l)) for l in range(2)]
    total_degree = 2 * small_directed.num_edges  # each directed edge counted once per endpoint
    assert sum(loads) == pytest.approx(total_degree)


def test_aggregator_registration_names():
    program = SpinnerProgram(3, SpinnerConfig(), convert_directed=False)
    registry = AggregatorRegistry()
    program.register_aggregators(registry)
    names = set(registry.names())
    assert {load_aggregator_name(l) for l in range(3)} <= names
    assert {candidate_aggregator_name(l) for l in range(3)} <= names
    assert SCORE_AGGREGATOR in names and MIGRATIONS_AGGREGATOR in names


def test_pre_superstep_resets_worker_deltas():
    program = SpinnerProgram(2, SpinnerConfig(), convert_directed=False)
    store = {WORKER_LOAD_DELTA_KEY: {0: 5.0}}
    program.pre_superstep(3, store, AggregatorRegistry())
    assert store[WORKER_LOAD_DELTA_KEY] == {}


def test_master_history_has_one_record_per_iteration(community_graph):
    config = SpinnerConfig(seed=1, max_iterations=8, halt_window=8)
    partitioner = SpinnerPartitioner(config, num_workers=2)
    result = partitioner.partition(spinner_input(community_graph), 3)
    assert result.iterations == len(result.history)
    assert [record.iteration for record in result.history] == list(range(result.iterations))


def test_superstep_bound_covers_all_phases():
    config = SpinnerConfig(max_iterations=10)
    with_conversion = SpinnerProgram(2, config, convert_directed=True)
    without_conversion = SpinnerProgram(2, config, convert_directed=False)
    assert with_conversion.superstep_bound() == without_conversion.superstep_bound() + 2
    assert with_conversion.superstep_bound() >= 2 + 1 + 2 * 10


def test_isolated_vertices_are_assigned(two_cliques):
    graph = DiGraph()
    for u, v, _w in two_cliques.edges():
        graph.add_edge(u, v)
    graph.add_vertex(42)  # isolated vertex, degree 0
    config = SpinnerConfig(seed=0, max_iterations=10)
    result = SpinnerPartitioner(config, num_workers=2).partition(spinner_input(graph), 2)
    assert 42 in result.assignment
    assert 0 <= result.assignment[42] < 2
