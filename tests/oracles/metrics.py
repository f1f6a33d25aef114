"""Quality metrics over dictionary graphs (reference oracle).

The dict arms :mod:`repro.metrics.quality` no longer has: Python loops
over an :class:`~repro.graph.undirected.UndirectedGraph` and a
``{vertex: label}`` mapping.  The CSR metrics must agree with them.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.undirected import UndirectedGraph


def locality(graph: UndirectedGraph, assignment: Mapping[int, int]) -> float:
    """``phi``: the fraction of edge weight inside partitions."""
    total = sum(w for _u, _v, w in graph.edges())
    local = sum(w for u, v, w in graph.edges() if assignment[u] == assignment[v])
    return local / total if total else 1.0


def cut_edges(graph: UndirectedGraph, assignment: Mapping[int, int]) -> int:
    """Number of edges whose endpoints lie in different partitions."""
    return sum(1 for u, v, _w in graph.edges() if assignment[u] != assignment[v])


def partition_loads(
    graph: UndirectedGraph, assignment: Mapping[int, int], num_partitions: int
) -> np.ndarray:
    """``b(l)``: summed weighted degrees per partition."""
    if num_partitions <= 0:
        raise InvalidPartitionCountError(num_partitions, "must be positive")
    loads = np.zeros(num_partitions, dtype=np.float64)
    for vertex, label in assignment.items():
        if not 0 <= label < num_partitions:
            raise PartitioningError(f"label {label} outside [0, {num_partitions})")
        loads[label] += graph.weighted_degree(vertex)
    return loads


def max_normalized_load(
    graph: UndirectedGraph, assignment: Mapping[int, int], num_partitions: int
) -> float:
    """``rho``: the largest load over the mean load."""
    loads = partition_loads(graph, assignment, num_partitions)
    total = loads.sum()
    return float(loads.max() / (total / num_partitions)) if total else 1.0


def global_score(
    graph: UndirectedGraph,
    assignment: Mapping[int, int],
    num_partitions: int,
    additional_capacity: float = 1.05,
) -> float:
    """``score(G)`` (eq. 10): local fraction minus penalty, summed over vertices."""
    loads = partition_loads(graph, assignment, num_partitions)
    total_load = loads.sum()
    if total_load == 0:
        return 0.0
    penalties = loads / (additional_capacity * total_load / num_partitions)
    score = 0.0
    for vertex in graph.vertices():
        label = assignment[vertex]
        degree = graph.weighted_degree(vertex)
        local = sum(w for n, w in graph.neighbors(vertex).items() if assignment[n] == label)
        score += (local / degree if degree else 0.0) - penalties[label]
    return score
