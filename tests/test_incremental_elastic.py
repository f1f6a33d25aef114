"""Tests for incremental and elastic repartitioning."""

import numpy as np
import pytest

from repro.core.config import SpinnerConfig
from repro.core.elastic import expand_labels, resize_labels, shrink_labels
from repro.core.fast import FastSpinner
from repro.core.spinner import SpinnerPartitioner
from repro.errors import InvalidPartitionCountError
from repro.graph.csr import CSRGraph
from repro.graph.delta_csr import DeltaCSR
from repro.graph.dynamic import EdgeArrivalStream
from repro.metrics.stability import partitioning_difference

from oracles.assignments import as_mapping, as_pair, result_pair
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
    previous = np.arange(4000) % 4
    expanded = expand_labels(previous, 4, 8, seed=1)
    moved = expanded != previous
    assert moved.mean() == pytest.approx(0.5, abs=0.05)  # n/(k+n) = 4/8
    assert expanded.min() >= 0 and expanded.max() < 8
    assert set(expanded[moved].tolist()) <= set(range(4, 8))


def test_shrink_assignment_empties_removed_partitions():
    previous = np.arange(400) % 4
    shrunk = shrink_labels(previous, 4, 2, seed=1)
    assert shrunk.min() >= 0 and shrunk.max() < 2
    unchanged = previous < 2
    assert np.array_equal(shrunk[unchanged], previous[unchanged])


def test_resize_dispatch():
    previous = np.array([0, 1])
    same = resize_labels(previous, 2, 2)
    assert np.array_equal(same, previous) and same is not previous
    assert set(resize_labels(previous, 2, 4, seed=0).tolist()) <= set(range(4))
    assert set(resize_labels(previous, 2, 1, seed=0).tolist()) == {0}


def test_expand_shrink_validation():
    with pytest.raises(InvalidPartitionCountError):
        expand_labels(np.array([0]), 4, 4)
    with pytest.raises(InvalidPartitionCountError):
        shrink_labels(np.array([0]), 4, 4)
    with pytest.raises(InvalidPartitionCountError):
        shrink_labels(np.array([0]), 4, 0)


def test_fast_incremental_adaptation_is_stable(tiny_tuenti, quick_config):
    stream = EdgeArrivalStream(CSRGraph.from_undirected(tiny_tuenti), holdout_fraction=0.2, seed=3)
    snapshot = stream.snapshot()
    spinner = FastSpinner(quick_config)
    initial = spinner.partition(snapshot, 4)
    initial_assignment = result_pair(initial)

    live = DeltaCSR(snapshot)
    live.append(stream.delta(fraction_of_snapshot=0.02))
    changed = live.to_csr()
    adapted = spinner.adapt_to_graph_changes(changed, initial_assignment, 4)
    scratch = FastSpinner(quick_config.with_options(seed=99)).partition(changed, 4)

    moved_adapted = partitioning_difference(initial_assignment, result_pair(adapted))
    moved_scratch = partitioning_difference(initial_assignment, result_pair(scratch))
    assert moved_adapted < moved_scratch
    assert adapted.iterations <= scratch.iterations + 2


def test_fast_elastic_adaptation(tiny_tuenti, quick_config):
    tiny_tuenti = CSRGraph.from_undirected(tiny_tuenti)
    spinner = FastSpinner(quick_config)
    initial = spinner.partition(tiny_tuenti, 4)
    elastic = spinner.adapt_to_partition_change(
        tiny_tuenti, result_pair(initial), 4, 6
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
        tiny_tuenti, result_pair(initial), 3
    )
    assert set(as_mapping(incremental)) == vertices
    elastic = partitioner.adapt_to_partition_change(
        tiny_tuenti, result_pair(initial), 3, 4
    )
    assert max(as_mapping(elastic).values()) <= 3


def test_both_spinners_start_elastic_runs_from_identical_labels(tiny_tuenti, monkeypatch):
    csr = CSRGraph.from_undirected(tiny_tuenti)
    ids = csr.original_ids.tolist()
    # Five vertices are new to the previous assignment, one has left the graph.
    previous = {v: v % 3 for v in ids[:-5]}
    previous[max(ids) + 1] = 2
    previous = as_pair(previous)
    starts = {}

    fast_partition = FastSpinner.partition

    def record_fast(self, graph, num_partitions, initial_labels=None):
        starts["fast"] = np.array(initial_labels, copy=True)
        return fast_partition(self, graph, num_partitions, initial_labels)

    pregel_run = SpinnerPartitioner._run

    def record_pregel(self, graph, view, num_partitions, initial_labels):
        starts["pregel"] = np.array(initial_labels, copy=True)
        return pregel_run(self, graph, view, num_partitions, initial_labels)

    monkeypatch.setattr(FastSpinner, "partition", record_fast)
    monkeypatch.setattr(SpinnerPartitioner, "_run", record_pregel)
    config = SpinnerConfig(seed=5, max_iterations=2)
    for new_k in (5, 2):
        FastSpinner(config).adapt_to_partition_change(csr, previous, 3, new_k)
        SpinnerPartitioner(config, num_workers=2).adapt_to_partition_change(
            csr, previous, 3, new_k
        )
        assert np.array_equal(starts["fast"], starts["pregel"])
        assert starts["fast"].min() >= 0 and starts["fast"].max() < new_k
