"""Tests for incremental and elastic repartitioning."""

import pytest

from repro.core.config import SpinnerConfig
from repro.core.elastic import expand_assignment, resize_assignment, shrink_assignment
from repro.core.fast import FastSpinner
from repro.core.spinner import SpinnerPartitioner
from repro.errors import InvalidPartitionCountError
from repro.graph.csr import CSRGraph
from repro.graph.delta_csr import DeltaCSR
from repro.graph.dynamic import EdgeArrivalStream
from repro.metrics.stability import partitioning_difference

from oracles.incremental import incremental_initial_assignment


def test_incremental_assignment_preserves_existing_labels(tiny_tuenti):
    previous = {v: v % 4 for v in tiny_tuenti.vertices()}
    assignment = incremental_initial_assignment(tiny_tuenti, previous, 4)
    assert assignment == previous


def test_incremental_assignment_places_new_vertices_least_loaded(two_cliques):
    previous = {v: 0 for v in range(5)}  # only half the graph is labelled
    assignment = incremental_initial_assignment(two_cliques, previous, 2)
    new_labels = [assignment[v] for v in range(5, 10)]
    assert all(label == 1 for label in new_labels)


def test_expand_assignment_moves_expected_fraction():
    previous = {v: v % 4 for v in range(4000)}
    expanded = expand_assignment(previous, 4, 8, seed=1)
    moved = sum(1 for v in previous if expanded[v] != previous[v])
    assert moved / len(previous) == pytest.approx(0.5, abs=0.05)  # n/(k+n) = 4/8
    assert all(0 <= label < 8 for label in expanded.values())
    moved_targets = {expanded[v] for v in previous if expanded[v] != previous[v]}
    assert moved_targets <= set(range(4, 8))


def test_shrink_assignment_empties_removed_partitions():
    previous = {v: v % 4 for v in range(400)}
    shrunk = shrink_assignment(previous, 4, 2, seed=1)
    assert all(0 <= label < 2 for label in shrunk.values())
    unchanged = [v for v in previous if previous[v] < 2]
    assert all(shrunk[v] == previous[v] for v in unchanged)


def test_resize_dispatch():
    previous = {0: 0, 1: 1}
    assert resize_assignment(previous, 2, 2) == previous
    assert set(resize_assignment(previous, 2, 4, seed=0).values()) <= set(range(4))
    assert set(resize_assignment(previous, 2, 1, seed=0).values()) == {0}


def test_expand_shrink_validation():
    with pytest.raises(InvalidPartitionCountError):
        expand_assignment({0: 0}, 4, 4)
    with pytest.raises(InvalidPartitionCountError):
        shrink_assignment({0: 0}, 4, 4)
    with pytest.raises(InvalidPartitionCountError):
        shrink_assignment({0: 0}, 4, 0)


def test_fast_incremental_adaptation_is_stable(tiny_tuenti, quick_config):
    stream = EdgeArrivalStream(CSRGraph.from_undirected(tiny_tuenti), holdout_fraction=0.2, seed=3)
    snapshot = stream.snapshot()
    spinner = FastSpinner(quick_config)
    initial = spinner.partition(snapshot, 4, track_history=False)
    initial_assignment = initial.to_assignment()

    live = DeltaCSR(snapshot)
    live.append(stream.delta(fraction_of_snapshot=0.02))
    changed = live.to_csr()
    adapted = spinner.adapt_to_graph_changes(changed, initial_assignment, 4)
    scratch = FastSpinner(quick_config.with_options(seed=99)).partition(changed, 4)

    moved_adapted = partitioning_difference(initial_assignment, adapted.to_assignment())
    moved_scratch = partitioning_difference(initial_assignment, scratch.to_assignment())
    assert moved_adapted < moved_scratch
    assert adapted.iterations <= scratch.iterations + 2


def test_fast_elastic_adaptation(tiny_tuenti, quick_config):
    tiny_tuenti = CSRGraph.from_undirected(tiny_tuenti)
    spinner = FastSpinner(quick_config)
    initial = spinner.partition(tiny_tuenti, 4, track_history=False)
    elastic = spinner.adapt_to_partition_change(
        tiny_tuenti, initial.to_assignment(), 4, 6
    )
    assert elastic.num_partitions == 6
    assert elastic.labels.max() < 6
    assert elastic.rho < 2.0


def test_pregel_incremental_and_elastic(tiny_tuenti):
    vertices = set(tiny_tuenti.vertices())
    tiny_tuenti = CSRGraph.from_undirected(tiny_tuenti)
    config = SpinnerConfig(seed=2, max_iterations=15)
    partitioner = SpinnerPartitioner(config, num_workers=2)
    initial = partitioner.partition(tiny_tuenti, 3)
    incremental = partitioner.adapt_to_graph_changes(
        tiny_tuenti, initial.assignment, 3
    )
    assert set(incremental.assignment) == vertices
    elastic = partitioner.adapt_to_partition_change(
        tiny_tuenti, initial.assignment, 3, 4
    )
    assert max(elastic.assignment.values()) <= 3
