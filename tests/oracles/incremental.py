"""The dictionary incremental initializer (paper Section III-D), reference
for :func:`repro.core.incremental.incremental_initial_labels`, which agrees
with it whenever the graph's iteration order is its ascending id order."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.state import validate_labels
from repro.graph.undirected import UndirectedGraph


def incremental_initial_assignment(
    graph: UndirectedGraph,
    previous_assignment: Mapping[int, int],
    num_partitions: int,
) -> dict[int, int]:
    """Keep previous labels (vanished vertices ignored); place new vertices,
    heaviest first, on the partition least loaded (by weighted degree) when
    each is placed."""
    validate_labels(previous_assignment.values(), num_partitions)
    weights = {v: graph.weighted_degree(v) for v in graph.vertices()}
    assignment: dict[int, int] = {}
    loads = np.zeros(num_partitions, dtype=np.float64)
    new_vertices: list[int] = []
    for vertex in graph.vertices():
        label = previous_assignment.get(vertex)
        if label is None:
            new_vertices.append(vertex)
        else:
            assignment[vertex] = label
            loads[label] += weights[vertex]
    for vertex in sorted(new_vertices, key=lambda v: -weights[v]):
        label = int(np.argmin(loads))
        assignment[vertex] = label
        loads[label] += weights[vertex]
    return assignment
