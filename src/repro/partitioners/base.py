"""Common interface for all partitioners.

A partitioner maps every vertex of a graph to one of ``k`` partitions.
The interface is intentionally minimal so the comparison harness (Table I)
can treat Spinner, the streaming baselines and the multilevel baseline
uniformly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import InvalidPartitionCountError
from repro.graph.conversion import ensure_undirected
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph
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
    metadata: dict = field(default_factory=dict)

    @cached_property
    def assignment(self) -> dict[int, int]:
        """The ``{vertex: partition}`` mapping (built on first access)."""
        return dict(zip(self.original_ids.tolist(), self.labels.tolist()))


class Partitioner:
    """Base class for partitioners.

    Subclasses set :attr:`name` and implement :meth:`partition`, returning
    a ``{vertex: partition}`` mapping with labels in
    ``[0, num_partitions)``.  :meth:`run` wraps :meth:`partition` and
    attaches the quality metrics used throughout the evaluation.
    """

    name = "base"

    def partition(
        self, graph: UndirectedGraph | DiGraph, num_partitions: int
    ) -> Mapping[int, int]:
        """Compute the assignment (must be overridden)."""
        raise NotImplementedError

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Partition a CSR graph and return a dense ``int64`` label array.

        Entry ``i`` is the partition of the vertex with dense id ``i``
        (original id ``graph.original_ids[i]``).  Partitioners with a CSR
        fast path override this; the default materializes a canonical
        dictionary graph (sorted vertex and edge insertion) and runs the
        regular :meth:`partition`, so every partitioner is usable from the
        array-native experiment pipeline.
        """
        from repro.partitioners.csr_stream import canonical_undirected

        assignment = self.partition(canonical_undirected(graph), num_partitions)
        return np.asarray(
            [assignment[int(v)] for v in graph.original_ids.tolist()], dtype=np.int64
        )

    def run(
        self, graph: UndirectedGraph | DiGraph | CSRGraph, num_partitions: int
    ) -> PartitioningOutput:
        """Partition ``graph`` and report locality and balance.

        A :class:`~repro.graph.csr.CSRGraph` (including an opened on-disk
        store) stays on arrays throughout: the labels come from
        :meth:`partition_array` and the metrics run on the CSR arrays.  A
        dictionary graph goes through :meth:`partition`, with the metrics
        on its undirected view.
        """
        if num_partitions <= 0:
            raise InvalidPartitionCountError(num_partitions, "must be positive")
        if isinstance(graph, CSRGraph):
            labels = np.asarray(
                self.partition_array(graph, num_partitions), dtype=np.int64
            )
            original_ids = graph.original_ids
            phi = locality(graph, labels)
            rho = max_normalized_load(graph, labels, num_partitions)
        else:
            assignment = dict(self.partition(graph, num_partitions))
            undirected = ensure_undirected(graph)
            phi = locality(undirected, assignment)
            rho = max_normalized_load(undirected, assignment, num_partitions)
            original_ids = np.fromiter(assignment, dtype=np.int64, count=len(assignment))
            labels = np.fromiter(
                assignment.values(), dtype=np.int64, count=len(assignment)
            )
        return PartitioningOutput(
            original_ids=original_ids,
            labels=labels,
            num_partitions=num_partitions,
            partitioner=self.name,
            phi=phi,
            rho=rho,
        )
