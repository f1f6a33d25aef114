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
from repro.errors import PartitioningError
from repro.graph.datasets import load_dataset
from repro.graph.delta_csr import DeltaCSR
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeArrivalStream
from repro.graph.undirected import UndirectedGraph
from repro.pregel.vector_coordinator import VectorPregelEngine

from oracles.assignments import result_pair
from oracles.graphs import powerlaw_cluster, spinner_input, watts_strogatz
from oracles.spinner import DictSpinnerPartitioner


def _stride_labels(graph):
    """A non-hash placement: blocks of three consecutive ids per worker."""
    ids = graph.original_ids if isinstance(graph, CSRGraph) else graph.ids
    return ids // 3


def _partitioners(config, num_workers=4, placement_labels=None):
    dict_part = DictSpinnerPartitioner(
        config, num_workers=num_workers, placement_labels=placement_labels
    )
    vector_part = SpinnerPartitioner(
        config, num_workers=num_workers, placement_labels=placement_labels
    )
    return dict_part, vector_part


def assert_equivalent(dict_result, vector_result):
    """Assert the full bit-exact equivalence contract between two runs."""
    assert np.array_equal(dict_result.original_ids, vector_result.original_ids)
    assert np.array_equal(dict_result.labels, vector_result.labels)
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
def undirected_graph():
    return spinner_input(
        powerlaw_cluster(220, edges_per_vertex=5, triangle_probability=0.5, seed=5)
    )


@pytest.fixture
def directed_graph():
    return spinner_input(load_dataset("TW", scale=0.05, seed=9))


@pytest.mark.parametrize("placement_name", ["hash", "stride"])
@pytest.mark.parametrize("graph_kind", ["undirected", "directed"])
def test_scratch_equivalence(graph_kind, placement_name, undirected_graph, directed_graph):
    graph = undirected_graph if graph_kind == "undirected" else directed_graph
    placement_labels = None if placement_name == "hash" else _stride_labels(graph)
    config = SpinnerConfig(seed=3, max_iterations=25)
    dict_part, vector_part = _partitioners(config, placement_labels=placement_labels)
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
    snapshot = DeltaCSR(stream.snapshot())
    initial = dict_part.partition(snapshot.base, 4)
    snapshot.append(stream.delta(fraction_of_snapshot=0.05))
    snapshot = snapshot.to_csr()
    assert_equivalent(
        dict_part.adapt_to_graph_changes(snapshot, result_pair(initial), 4),
        vector_part.adapt_to_graph_changes(snapshot, result_pair(initial), 4),
    )


@pytest.mark.parametrize("new_k", [6, 3], ids=["expand", "shrink"])
def test_elastic_restart_equivalence(new_k, undirected_graph):
    config = SpinnerConfig(seed=3, max_iterations=25)
    dict_part, vector_part = _partitioners(config)
    base = dict_part.partition(undirected_graph, 4)
    assert_equivalent(
        dict_part.adapt_to_partition_change(undirected_graph, result_pair(base), 4, new_k),
        vector_part.adapt_to_partition_change(undirected_graph, result_pair(base), 4, new_k),
    )


def test_initial_assignment_equivalence(undirected_graph):
    config = SpinnerConfig(seed=1, max_iterations=10)
    dict_part, vector_part = _partitioners(config)
    initial = undirected_graph.original_ids % 3
    assert_equivalent(
        dict_part.partition(undirected_graph, 3, initial_labels=initial),
        vector_part.partition(undirected_graph, 3, initial_labels=initial),
    )


def test_directed_self_loops_equivalence():
    graph = DiGraph.from_edges(
        [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 4), (4, 0)]
    )
    graph = spinner_input(graph)
    config = SpinnerConfig(seed=3, max_iterations=10)
    dict_part, vector_part = _partitioners(config, num_workers=2)
    assert_equivalent(dict_part.partition(graph, 2), vector_part.partition(graph, 2))


def test_isolated_vertices_equivalence():
    graph = UndirectedGraph()
    for vertex in range(8):
        graph.add_vertex(vertex)
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    graph = spinner_input(graph)
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
    graph = spinner_input(watts_strogatz(180, degree=8, beta=0.3, seed=5))
    config = SpinnerConfig(seed=5, max_iterations=20)
    dict_part, vector_part = _partitioners(config, num_workers=5)
    assert_equivalent(dict_part.partition(graph, 8), vector_part.partition(graph, 8))


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
