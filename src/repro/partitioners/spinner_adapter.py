"""Adapters exposing the two Spinner implementations as `Partitioner`s.

The comparison harness (Table I, Figure 3) treats every approach through
the :class:`~repro.partitioners.base.Partitioner` interface; these thin
adapters let Spinner participate.  The Pregel runtime is imported only
when :class:`SpinnerPregelAdapter` runs, so the FastSpinner adapter never
loads it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner
from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner


class SpinnerFastAdapter(Partitioner):
    """Vectorized Spinner behind the common partitioner interface.

    An opened on-disk store runs out of core, any other graph in RAM.
    """

    name = "spinner"

    def __init__(self, config: SpinnerConfig | None = None) -> None:
        self.config = config if config is not None else SpinnerConfig()

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Run FastSpinner on the CSR graph and return its dense label array."""
        return FastSpinner(self.config).partition(graph, num_partitions).labels


class SpinnerPregelAdapter(Partitioner):
    """Pregel-based Spinner behind the common partitioner interface.

    The Pregel runtime shards the CSR input directly.
    """

    name = "spinner-pregel"

    def __init__(
        self,
        config: SpinnerConfig | None = None,
        num_workers: int = 4,
    ) -> None:
        self.config = config if config is not None else SpinnerConfig()
        self.num_workers = num_workers

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Run the Pregel Spinner and return its dense label array."""
        from repro.core.spinner import SpinnerPartitioner

        spinner = SpinnerPartitioner(self.config, num_workers=self.num_workers)
        return spinner.partition(graph, num_partitions).labels
