"""Uniformly random partitioning.

Functionally close to hash partitioning (structure-oblivious) but with an
explicit seed — ``0`` by default, like the other seeded baselines, so
repeated runs agree; used as the initial state of Spinner and as the
"random" baseline of Table IV.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner


class RandomPartitioner(Partitioner):
    """Assign every vertex to a uniformly random partition."""

    name = "random"

    def __init__(self, seed: int | None = 0) -> None:
        self.seed = seed

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Seeded random labels: dense vertex ``i`` (the ``i``-th smallest
        original id) receives the ``i``-th draw."""
        rng = np.random.default_rng(self.seed)
        return rng.integers(num_partitions, size=graph.num_vertices).astype(np.int64)
