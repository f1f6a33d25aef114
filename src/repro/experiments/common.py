"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.core.spinner import SpinnerPartitioner
from repro.errors import ConfigurationError
from repro.graph.conversion import ensure_undirected
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph

#: Spinner runtimes the dynamic/elastic experiments can run on.
SPINNER_RUNTIMES = ("fast", "dict", "vector")


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs for an experiment run.

    ``graph_scale`` multiplies the dataset-proxy sizes; ``quick`` presets
    are used by the test suite, ``default`` by the benchmark harness.
    ``graph_scale`` must be a finite positive number.
    """

    graph_scale: float = 0.2
    seed: int = 7

    def __post_init__(self) -> None:
        if not (math.isfinite(self.graph_scale) and self.graph_scale > 0):
            raise ConfigurationError(
                f"graph_scale must be a positive number, got {self.graph_scale}"
            )

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Tiny sizes for the integration tests."""
        return cls(graph_scale=0.05, seed=7)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Benchmark sizes (seconds per experiment, not hours)."""
        return cls(graph_scale=0.25, seed=7)


def spinner_config(seed: int = 7, **overrides) -> SpinnerConfig:
    """The paper's default Spinner parameters with a fixed seed."""
    return SpinnerConfig(seed=seed, **overrides)


def undirected_dataset(name: str, scale: ExperimentScale) -> UndirectedGraph:
    """Load a dataset proxy and return its weighted undirected view."""
    graph = load_dataset(name, scale=scale.graph_scale)
    return ensure_undirected(graph)


@dataclass(frozen=True)
class SpinnerRunSummary:
    """Runtime-agnostic view of one Spinner run.

    Normalizes :class:`~repro.core.fast.FastSpinnerResult` and
    :class:`~repro.core.spinner.SpinnerResult` to the quantities the
    dynamic/elastic experiments report (Figures 7 and 8): iterations and
    message counts proxy processing time and network traffic, the
    assignment feeds the stability metrics.
    """

    assignment: dict[int, int]
    iterations: int
    total_messages: int
    phi: float
    rho: float

    def to_assignment(self) -> dict[int, int]:
        """Return the ``{vertex: partition}`` mapping (runner-API parity)."""
        return self.assignment


class SpinnerRunner:
    """One Spinner implementation behind a runtime-agnostic interface.

    ``engine`` selects among the three runtimes documented in
    ``docs/ARCHITECTURE.md``: ``"fast"`` (vectorized
    :class:`~repro.core.fast.FastSpinner` kernels, the default for the
    experiment sweeps), ``"dict"`` (per-vertex Pregel reference) and
    ``"vector"`` (array-native Pregel).  All three implement the same
    algorithm; the Pregel pair is bit-exact for a fixed seed, while
    ``"fast"`` consumes its random stream differently.
    """

    def __init__(self, engine: str, config: SpinnerConfig, num_workers: int = 4) -> None:
        if engine not in SPINNER_RUNTIMES:
            raise ConfigurationError(
                f"engine must be one of {SPINNER_RUNTIMES}, got {engine!r}"
            )
        self.engine = engine
        self.config = config
        self.num_workers = num_workers

    def _summarize(self, result) -> SpinnerRunSummary:
        if self.engine == "fast":
            return SpinnerRunSummary(
                assignment=result.to_assignment(),
                iterations=result.iterations,
                total_messages=result.total_messages,
                phi=result.phi,
                rho=result.rho,
            )
        return SpinnerRunSummary(
            assignment=result.assignment,
            iterations=result.iterations,
            total_messages=result.total_messages,
            phi=result.phi,
            rho=result.rho,
        )

    def _partitioner(self):
        if self.engine == "fast":
            return FastSpinner(self.config)
        return SpinnerPartitioner(
            self.config, num_workers=self.num_workers, engine=self.engine
        )

    def partition(
        self, graph: UndirectedGraph | DiGraph, num_partitions: int
    ) -> SpinnerRunSummary:
        """Partition from scratch."""
        if self.engine == "fast":
            result = self._partitioner().partition(
                graph, num_partitions, track_history=False
            )
        else:
            result = self._partitioner().partition(graph, num_partitions)
        return self._summarize(result)

    def adapt_to_graph_changes(
        self,
        graph: UndirectedGraph | DiGraph,
        previous_assignment: Mapping[int, int],
        num_partitions: int,
    ) -> SpinnerRunSummary:
        """Incrementally adapt after graph changes (Section III-D)."""
        if self.engine == "fast":
            result = self._partitioner().adapt_to_graph_changes(
                graph, previous_assignment, num_partitions, track_history=False
            )
        else:
            result = self._partitioner().adapt_to_graph_changes(
                graph, previous_assignment, num_partitions
            )
        return self._summarize(result)

    def adapt_to_partition_change(
        self,
        graph: UndirectedGraph | DiGraph,
        previous_assignment: Mapping[int, int],
        old_num_partitions: int,
        new_num_partitions: int,
    ) -> SpinnerRunSummary:
        """Elastically adapt to a new partition count (Section III-E)."""
        if self.engine == "fast":
            result = self._partitioner().adapt_to_partition_change(
                graph,
                previous_assignment,
                old_num_partitions,
                new_num_partitions,
                track_history=False,
            )
        else:
            result = self._partitioner().adapt_to_partition_change(
                graph, previous_assignment, old_num_partitions, new_num_partitions
            )
        return self._summarize(result)
