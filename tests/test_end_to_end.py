"""End-to-end integration tests across the whole stack.

These mirror how a downstream user would chain the pieces: generate (or
load) a graph, partition it with Spinner, verify quality against a
baseline, feed the partitioning into the simulated Giraph cluster, and
adapt it as the graph evolves.
"""

import pytest

from repro.apps.pagerank import BatchPageRank
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.core.spinner import SpinnerPartitioner
from repro.experiments.giraph import run_application
from repro.graph.conversion import ensure_undirected
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.dynamic import EdgeArrivalStream
from repro.metrics.quality import max_normalized_load
from repro.metrics.stability import partitioning_difference
from repro.partitioners.hashing import HashPartitioner


@pytest.fixture(scope="module")
def social_graph():
    return ensure_undirected(load_dataset("TU", scale=0.06))


def test_partition_then_accelerate_application(social_graph):
    config = SpinnerConfig(seed=5, max_iterations=60)
    assignment = FastSpinner(config).partition(social_graph, 4).to_assignment()

    hash_run = run_application(BatchPageRank(5), social_graph, num_workers=4)
    spinner_run = run_application(
        BatchPageRank(5), social_graph, num_workers=4, assignment=assignment
    )
    assert spinner_run.remote_messages < hash_run.remote_messages
    assert spinner_run.simulated_time < hash_run.simulated_time


def test_full_dynamic_lifecycle(social_graph):
    config = SpinnerConfig(seed=5, max_iterations=60)
    spinner = FastSpinner(config)
    stream = EdgeArrivalStream(social_graph, holdout_fraction=0.25, seed=5)
    snapshot = stream.snapshot()

    initial = spinner.partition(snapshot, 4)
    hash_output = HashPartitioner().run(CSRGraph.from_undirected(snapshot), 4)
    assert initial.phi > hash_output.phi

    # Graph grows: adapt incrementally.
    grown = stream.snapshot()
    stream.delta(fraction_of_snapshot=0.05).apply(grown)
    adapted = spinner.adapt_to_graph_changes(grown, initial.to_assignment(), 4)
    moved = partitioning_difference(initial.to_assignment(), adapted.to_assignment())
    assert moved < 0.7

    # Cluster grows: adapt elastically to 6 partitions.
    elastic = spinner.adapt_to_partition_change(grown, adapted.to_assignment(), 4, 6)
    assert elastic.num_partitions == 6
    assert max_normalized_load(grown, elastic.to_assignment(), 6) < 2.0


def test_pregel_and_fast_spinner_reach_similar_quality(two_cliques):
    config = SpinnerConfig(seed=2, max_iterations=40)
    fast = FastSpinner(config).partition(two_cliques, 2)
    pregel = SpinnerPartitioner(config, num_workers=2).partition(two_cliques, 2)
    assert abs(fast.phi - pregel.phi) < 0.2
    assert abs(fast.rho - pregel.rho) < 0.5
