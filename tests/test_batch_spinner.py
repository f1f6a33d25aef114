"""Equivalence suite: BatchSpinnerProgram (vector engine) vs SpinnerProgram (dict engine).

The contract is bit-exact, not approximate: for the same
:class:`~repro.core.config.SpinnerConfig` (same seed) the two runtimes
must produce identical assignments, superstep counts, iteration
histories (``phi``/``rho``/``score``/``migrations`` compared as exact
floats), aggregator histories, per-worker statistics and halt reasons —
across directed and undirected generator graphs, both placements, the
ablation switches and the incremental/elastic restart paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch_program import BatchSpinnerProgram, build_spinner_shard
from repro.core.config import SpinnerConfig
from repro.core.spinner import SpinnerPartitioner
from repro.errors import ConfigurationError, PartitioningError
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeArrivalStream
from repro.graph.generators import powerlaw_cluster, watts_strogatz
from repro.graph.undirected import UndirectedGraph
from repro.pregel.vector_coordinator import VectorPregelEngine


def _stride_placement(num_workers: int):
    """A non-hash placement: blocks of three consecutive ids per worker."""

    def place(vertex_id: int) -> int:
        return (vertex_id // 3) % num_workers

    return place


def _partitioners(config, num_workers=4, placement=None):
    dict_part = SpinnerPartitioner(
        config, num_workers=num_workers, engine="dict", placement=placement
    )
    vector_part = SpinnerPartitioner(
        config, num_workers=num_workers, engine="vector", placement=placement
    )
    return dict_part, vector_part


def assert_equivalent(dict_result, vector_result):
    """Assert the full bit-exact equivalence contract between two runs."""
    assert dict_result.assignment == vector_result.assignment
    assert dict_result.iterations == vector_result.iterations
    # IterationRecord is a frozen dataclass of floats; == is exact.
    assert dict_result.history == vector_result.history
    assert dict_result.phi == vector_result.phi
    assert dict_result.rho == vector_result.rho
    dict_pregel = dict_result.pregel_result
    vector_pregel = vector_result.pregel_result
    assert dict_pregel.num_supersteps == vector_pregel.num_supersteps
    assert dict_pregel.halt_reason == vector_pregel.halt_reason
    assert dict_pregel.aggregator_history == vector_pregel.aggregator_history
    assert dict_pregel.stats.superstep_stats == vector_pregel.stats.superstep_stats
    assert dict_pregel.stats.messages_dropped == vector_pregel.stats.messages_dropped


@pytest.fixture
def undirected_graph() -> UndirectedGraph:
    return powerlaw_cluster(220, edges_per_vertex=5, triangle_probability=0.5, seed=5)


@pytest.fixture
def directed_graph() -> DiGraph:
    return load_dataset("TW", scale=0.05, seed=9)


@pytest.mark.parametrize("placement_name", ["hash", "stride"])
@pytest.mark.parametrize("graph_kind", ["undirected", "directed"])
def test_scratch_equivalence(graph_kind, placement_name, undirected_graph, directed_graph):
    graph = undirected_graph if graph_kind == "undirected" else directed_graph
    placement = None if placement_name == "hash" else _stride_placement(4)
    config = SpinnerConfig(seed=3, max_iterations=25)
    dict_part, vector_part = _partitioners(config, placement=placement)
    assert_equivalent(dict_part.partition(graph, 4), vector_part.partition(graph, 4))


@pytest.mark.parametrize(
    "overrides",
    [
        {"worker_local_updates": False},
        {"probabilistic_migration": False},
        {"balance_penalty": False},
        {"prefer_current_label": False},
        {"additional_capacity": 1.5},
    ],
    ids=lambda o: next(iter(o.items()))[0],
)
def test_ablation_equivalence(overrides, undirected_graph):
    config = SpinnerConfig(seed=7, max_iterations=20).with_options(**overrides)
    dict_part, vector_part = _partitioners(config)
    assert_equivalent(
        dict_part.partition(undirected_graph, 4),
        vector_part.partition(undirected_graph, 4),
    )


def test_directed_ablation_equivalence(directed_graph):
    config = SpinnerConfig(seed=11, max_iterations=15, worker_local_updates=False)
    dict_part, vector_part = _partitioners(config, num_workers=3)
    assert_equivalent(
        dict_part.partition(directed_graph, 5), vector_part.partition(directed_graph, 5)
    )


def test_incremental_restart_equivalence(undirected_graph):
    config = SpinnerConfig(seed=3, max_iterations=25)
    dict_part, vector_part = _partitioners(config)
    stream = EdgeArrivalStream(undirected_graph, holdout_fraction=0.3, seed=5)
    snapshot = stream.snapshot()
    initial = dict_part.partition(snapshot, 4)
    delta = stream.delta(fraction_of_snapshot=0.05)
    delta.apply(snapshot)
    assert_equivalent(
        dict_part.adapt_to_graph_changes(snapshot, initial.assignment, 4),
        vector_part.adapt_to_graph_changes(snapshot, initial.assignment, 4),
    )


@pytest.mark.parametrize("new_k", [6, 3], ids=["expand", "shrink"])
def test_elastic_restart_equivalence(new_k, undirected_graph):
    config = SpinnerConfig(seed=3, max_iterations=25)
    dict_part, vector_part = _partitioners(config)
    base = dict_part.partition(undirected_graph, 4)
    assert_equivalent(
        dict_part.adapt_to_partition_change(undirected_graph, base.assignment, 4, new_k),
        vector_part.adapt_to_partition_change(undirected_graph, base.assignment, 4, new_k),
    )


def test_initial_assignment_equivalence(undirected_graph):
    config = SpinnerConfig(seed=1, max_iterations=10)
    dict_part, vector_part = _partitioners(config)
    initial = {v: v % 3 for v in undirected_graph.vertices()}
    assert_equivalent(
        dict_part.partition(undirected_graph, 3, initial_assignment=initial),
        vector_part.partition(undirected_graph, 3, initial_assignment=initial),
    )


def test_directed_self_loops_equivalence():
    graph = DiGraph.from_edges(
        [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 4), (4, 0)]
    )
    config = SpinnerConfig(seed=3, max_iterations=10)
    dict_part, vector_part = _partitioners(config, num_workers=2)
    assert_equivalent(dict_part.partition(graph, 2), vector_part.partition(graph, 2))


def test_isolated_vertices_equivalence():
    graph = UndirectedGraph()
    for vertex in range(8):
        graph.add_vertex(vertex)
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    config = SpinnerConfig(seed=3, max_iterations=8)
    dict_part, vector_part = _partitioners(config, num_workers=2)
    assert_equivalent(dict_part.partition(graph, 2), vector_part.partition(graph, 2))


def test_max_iterations_halt_equivalence(undirected_graph):
    # A huge halt window forces the max_iterations path in both engines.
    config = SpinnerConfig(seed=3, max_iterations=4, halt_window=100)
    dict_part, vector_part = _partitioners(config)
    dict_result = dict_part.partition(undirected_graph, 4)
    vector_result = vector_part.partition(undirected_graph, 4)
    assert dict_result.iterations == 4
    assert_equivalent(dict_result, vector_result)


def test_small_world_equivalence():
    graph = watts_strogatz(180, degree=8, beta=0.3, seed=5)
    config = SpinnerConfig(seed=5, max_iterations=20)
    dict_part, vector_part = _partitioners(config, num_workers=5)
    assert_equivalent(dict_part.partition(graph, 8), vector_part.partition(graph, 8))


# ----------------------------------------------------------------------
# engine selection plumbing
# ----------------------------------------------------------------------
def test_config_engine_field_selects_runtime(undirected_graph):
    config = SpinnerConfig(seed=3, max_iterations=10, engine="vector")
    partitioner = SpinnerPartitioner(config)
    assert partitioner.engine == "vector"
    result = partitioner.partition(undirected_graph, 4)
    assert set(result.assignment) == set(undirected_graph.vertices())


def test_engine_argument_overrides_config(undirected_graph):
    config = SpinnerConfig(seed=3, max_iterations=10, engine="dict")
    assert SpinnerPartitioner(config, engine="vector").engine == "vector"


def test_invalid_engine_rejected():
    with pytest.raises(ConfigurationError):
        SpinnerConfig(engine="warp")
    with pytest.raises(ConfigurationError):
        SpinnerPartitioner(SpinnerConfig(), engine="warp")


# ----------------------------------------------------------------------
# BatchSpinnerProgram internals
# ----------------------------------------------------------------------
def test_bind_validates_label_count(undirected_graph):
    engine = VectorPregelEngine(num_workers=2)
    shard = build_spinner_shard(engine, undirected_graph)
    program = BatchSpinnerProgram(4, SpinnerConfig(), convert_directed=False)
    with pytest.raises(PartitioningError):
        program.bind(shard, np.zeros(3, dtype=np.int64))


def test_bind_validates_conversion_flag(undirected_graph):
    engine = VectorPregelEngine(num_workers=2)
    shard = build_spinner_shard(engine, undirected_graph)
    program = BatchSpinnerProgram(4, SpinnerConfig(), convert_directed=True)
    with pytest.raises(PartitioningError):
        program.bind(shard, np.zeros(shard.shard.num_vertices, dtype=np.int64))


def test_directed_shard_carries_send_plan(directed_graph):
    engine = VectorPregelEngine(num_workers=4)
    spinner_shard = build_spinner_shard(engine, directed_graph)
    assert spinner_shard.convert_directed
    plan = spinner_shard.directed_plan
    assert plan.sources.shape == plan.targets.shape
    assert int(plan.out_degrees.sum()) == plan.sources.shape[0]
    # Canonical order: worker-major by source.
    source_workers = spinner_shard.shard.worker_of[plan.sources]
    assert np.all(np.diff(source_workers) >= 0)
