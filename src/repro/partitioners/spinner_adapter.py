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

    ``storage``, ``storage_dir`` and ``storage_chunk`` override the
    matching :class:`~repro.core.config.SpinnerConfig` fields:
    ``storage="mmap"`` runs the kernels out-of-core against an on-disk
    CSR store, bit-exact with the in-RAM tier.
    """

    name = "spinner"

    def __init__(
        self,
        config: SpinnerConfig | None = None,
        storage: str | None = None,
        storage_dir: str | None = None,
        storage_chunk: int | None = None,
    ) -> None:
        config = config if config is not None else SpinnerConfig()
        overrides: dict[str, object] = {}
        if storage is not None:
            overrides["storage"] = storage
        if storage_dir is not None:
            overrides["storage_dir"] = storage_dir
        if storage_chunk is not None:
            overrides["storage_chunk"] = storage_chunk
        if overrides:
            config = config.with_options(**overrides)
        self.config = config

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Run FastSpinner on the CSR graph and return its dense label array."""
        result = FastSpinner(self.config).partition(
            graph, num_partitions, track_history=False
        )
        return result.labels


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
        assignment = spinner.partition(graph, num_partitions).assignment
        return np.fromiter(
            (assignment[v] for v in graph.original_ids.tolist()),
            dtype=np.int64,
            count=graph.num_vertices,
        )
