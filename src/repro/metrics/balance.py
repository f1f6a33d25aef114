"""Load-balance helpers built on top of the core quality metrics.

These are used by the worker-load experiment (Table IV) and by the
analytical load model in :mod:`repro.analysis.load_model`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.metrics.quality import partition_loads


@dataclass(frozen=True)
class LoadStatistics:
    """Summary of a load vector (per-partition or per-worker)."""

    mean: float
    maximum: float
    minimum: float
    std: float

    @property
    def imbalance(self) -> float:
        """``maximum / mean`` — 1.0 is perfect balance."""
        if self.mean == 0:
            return 1.0
        return self.maximum / self.mean

    @property
    def idle_fraction(self) -> float:
        """Average fraction of the barrier time workers spend idle.

        Under a synchronous barrier every worker waits for the slowest one,
        so a worker with load ``x`` idles for ``(max - x) / max`` of the
        superstep.  This is the quantity discussed around Table IV.
        """
        if self.maximum == 0:
            return 0.0
        return float(1.0 - self.mean / self.maximum)


def load_statistics(loads: Sequence[float] | np.ndarray) -> LoadStatistics:
    """Summarize a vector of loads."""
    arr = np.asarray(loads, dtype=np.float64)
    if arr.size == 0:
        return LoadStatistics(0.0, 0.0, 0.0, 0.0)
    return LoadStatistics(
        mean=float(arr.mean()),
        maximum=float(arr.max()),
        minimum=float(arr.min()),
        std=float(arr.std()),
    )


def partition_load_statistics(
    graph: CSRGraph,
    labels: np.ndarray,
    num_partitions: int,
) -> LoadStatistics:
    """Load statistics of a partitioning (wrapper around ``partition_loads``)."""
    return load_statistics(partition_loads(graph, labels, num_partitions))
