"""Hash partitioning — the de-facto standard Spinner is compared against.

Giraph assigns vertex ``v`` to worker ``hash(v) mod k``.  It is trivially
balanced in vertex count and requires no computation, but it is oblivious
to the graph structure, so roughly a ``1 - 1/k`` fraction of edges end up
cut — the poor locality the paper's Figure 3(b) quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partitioners.base import Partitioner


def _mix(vertex_id: int) -> int:
    """Deterministic 64-bit integer hash (splitmix64 finalizer).

    Python's builtin ``hash`` of an int is the int itself, which would make
    "hash partitioning" of contiguous ids equivalent to round-robin and
    unrealistically well balanced on some generators; a real hash spreads
    ids pseudo-randomly, which is what we model here.
    """
    z = (vertex_id + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def hash_label(vertex_id: int, num_partitions: int) -> int:
    """Scalar ``splitmix64(id) mod k`` — the single-vertex twin of
    :func:`hash_labels_array`.

    Operates on plain Python ints so a single miss in the serving layer's
    :meth:`~repro.serving.store.AssignmentSnapshot.lookup` costs no array
    allocation.  Equal to ``hash_labels_array(np.asarray([vertex_id]), k)[0]``
    for every non-negative 63-bit id (the fuzz suite in
    ``tests/test_serving_dataplane.py`` pins this).  Negative ids are
    rejected: every graph layer uses non-negative ids, and the uint64
    wrap the array helper applies to a negative input would silently
    route a corrupt id instead of surfacing the bug.
    """
    if vertex_id < 0:
        raise ValueError(f"vertex id must be non-negative, got {vertex_id}")
    return _mix(vertex_id) % num_partitions


def hash_labels_array(vertex_ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Vectorized ``_mix(id) mod k`` over an id array (identical to ``_mix``).

    Shared by :class:`HashPartitioner` and the serving layer's
    miss-fallback (:mod:`repro.serving.store`), so a vertex born after the
    current snapshot is routed to the exact partition hash partitioning
    would pick for it.
    """
    z = np.asarray(vertex_ids).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(num_partitions)).astype(np.int64)


class HashPartitioner(Partitioner):
    """Assign vertex ``v`` to partition ``hash(v) mod k``."""

    name = "hash"

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Vectorized splitmix64 over the original ids (identical to ``_mix``)."""
        return hash_labels_array(graph.original_ids, num_partitions)


class ModuloPartitioner(Partitioner):
    """Plain ``v mod k`` assignment (round-robin over contiguous ids)."""

    name = "modulo"

    def partition_array(self, graph: CSRGraph, num_partitions: int) -> np.ndarray:
        """Vectorized ``original_id mod k``."""
        return graph.original_ids % np.int64(num_partitions)
