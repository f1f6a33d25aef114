"""Common interface for all partitioners.

A partitioner maps every vertex of a CSR graph to one of ``k`` partitions.
The interface is intentionally minimal — one array method — so the
comparison harness (Table I) can treat Spinner, the streaming baselines
and the multilevel baseline uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import InvalidPartitionCountError
from repro.graph.csr import CSRGraph
from repro.metrics.quality import locality, max_normalized_load


@dataclass
class PartitioningOutput:
    """Assignment plus the metadata a comparison needs.

    The assignment is held as two aligned ``int64`` arrays: vertex
    ``original_ids[i]`` lives in partition ``labels[i]``.  The
    ``{vertex: partition}`` dictionary is only built when
    :attr:`assignment` is read.
    """

    original_ids: np.ndarray
    labels: np.ndarray
    num_partitions: int
    partitioner: str
    phi: float = 0.0
    rho: float = 1.0

    @cached_property
    def assignment(self) -> dict[int, int]:
        """The ``{vertex: partition}`` mapping (built on first access)."""
        return dict(zip(self.original_ids.tolist(), self.labels.tolist()))


class Partitioner(ABC):
    """Base class for partitioners.

    Subclasses set :attr:`name` and implement :meth:`partition_array`,
    returning one ``int64`` label in ``[0, num_partitions)`` per CSR
    vertex.  :meth:`run` wraps it and attaches the quality metrics used
    throughout the evaluation.
    """

    name = "base"

    @abstractmethod
    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Partition a CSR graph and return a dense ``int64`` label array.

        Entry ``i`` is the partition of the vertex with dense id ``i``
        (original id ``graph.original_ids[i]``).
        """

    def run(self, graph: CSRGraph, num_partitions: int) -> PartitioningOutput:
        """Partition ``graph`` and report locality and balance.

        The graph (an in-RAM :class:`~repro.graph.csr.CSRGraph` or an
        opened on-disk store) stays on arrays throughout: the labels come
        from :meth:`partition_array` and the metrics run on the CSR arrays.
        """
        if num_partitions <= 0:
            raise InvalidPartitionCountError(num_partitions, "must be positive")
        labels = np.asarray(self.partition_array(graph, num_partitions), dtype=np.int64)
        return PartitioningOutput(
            original_ids=graph.original_ids,
            labels=labels,
            num_partitions=num_partitions,
            partitioner=self.name,
            phi=locality(graph, labels),
            rho=max_normalized_load(graph, labels, num_partitions),
        )
