"""Locality, balance and score metrics (paper Section V, eq. 16).

All functions take a :class:`~repro.graph.csr.CSRGraph` and a NumPy label
array aligned with its dense vertex ids.  Labels must lie in
``[0, num_partitions)``.

On the out-of-core tier (``graph.storage == "mmap"``) the edge-touching
metrics stream the half-edge arrays chunk by chunk instead of calling
``edge_array()``, keeping peak RSS at ``O(chunk + labels)``.  The values
are bit-identical to the single-pass expressions: every accumulated
quantity is a sum of integer edge weights (exact in ``float64``), so the
accumulation order cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.csr import CSRGraph


def _check_k(num_partitions: int) -> None:
    if num_partitions <= 0:
        raise InvalidPartitionCountError(num_partitions, "must be positive")


def _metric_chunk() -> int:
    """Half-edges per streamed chunk for the mmap-tier metric passes."""
    from repro.graph.mmap_store import DEFAULT_STORAGE_CHUNK

    return DEFAULT_STORAGE_CHUNK


def _labels_array(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.shape[0] != graph.num_vertices:
        raise PartitioningError(
            f"label array has {arr.shape[0]} entries for {graph.num_vertices} vertices"
        )
    return arr


# ----------------------------------------------------------------------
# locality (phi)
# ----------------------------------------------------------------------
def locality(
    graph: CSRGraph,
    labels: np.ndarray,
) -> float:
    """Ratio of local edge weight: ``phi`` in the paper (eq. 16, left).

    Edge weights are taken into account so that, for graphs converted from
    a directed input, ``phi`` equals the fraction of *directed* edges whose
    endpoints are co-located — exactly the fraction of messages that stay
    local in a Pregel computation.
    """
    labels = _labels_array(graph, labels)
    if graph.storage == "mmap":
        total = 2 * graph.total_weight
        if total == 0:
            return 1.0
        local = 0.0
        for _, _, src, tgt, w in graph.iter_edge_chunks(_metric_chunk()):
            local += float(w[labels[src] == labels[tgt]].sum())
        return float(local / total)
    sources, targets, weights = graph.edge_array()
    if weights.sum() == 0:
        return 1.0
    local = weights[labels[sources] == labels[targets]].sum()
    return float(local / weights.sum())


def cut_edges(
    graph: CSRGraph,
    labels: np.ndarray,
) -> int:
    """Number of undirected edges whose endpoints lie in different partitions."""
    labels = _labels_array(graph, labels)
    if graph.storage == "mmap":
        crossing_halves = 0
        for _, _, src, tgt, _w in graph.iter_edge_chunks(_metric_chunk()):
            crossing_halves += int((labels[src] != labels[tgt]).sum())
        return crossing_halves // 2
    sources, targets, _weights = graph.edge_array()
    crossing = labels[sources] != labels[targets]
    # Each undirected edge appears twice in the edge array.
    return int(crossing.sum() // 2)


# ----------------------------------------------------------------------
# balance (rho)
# ----------------------------------------------------------------------
def partition_loads(
    graph: CSRGraph,
    labels: np.ndarray,
    num_partitions: int,
) -> np.ndarray:
    """Load ``b(l)`` of every partition (eq. 6).

    The load of a partition is the sum of the weighted degrees of its
    vertices, i.e. the number of messages its vertices exchange per
    superstep — the quantity Spinner balances.
    """
    _check_k(num_partitions)
    loads = np.zeros(num_partitions, dtype=np.float64)
    labels = _labels_array(graph, labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_partitions):
        raise PartitioningError("labels outside [0, num_partitions)")
    np.add.at(loads, labels, graph.weighted_degrees.astype(np.float64))
    return loads


def max_normalized_load(
    graph: CSRGraph,
    labels: np.ndarray,
    num_partitions: int,
) -> float:
    """Maximum normalized load ``rho`` (eq. 16, right).

    ``rho = 1.0`` means perfect balance; ``rho = 1.05`` means the most
    loaded partition holds 5% more than the ideal share.
    """
    loads = partition_loads(graph, labels, num_partitions)
    total = loads.sum()
    if total == 0:
        return 1.0
    ideal = total / num_partitions
    return float(loads.max() / ideal)


# ----------------------------------------------------------------------
# global score (eq. 10)
# ----------------------------------------------------------------------
def global_score(
    graph: CSRGraph,
    labels: np.ndarray,
    num_partitions: int,
    additional_capacity: float = 1.05,
) -> float:
    """Aggregate partitioning score ``score(G)`` (eq. 10).

    Each vertex contributes its normalized locality score minus the penalty
    of its current partition (eq. 8).  The experiment harness tracks this
    value per iteration to reproduce Figure 4.
    """
    _check_k(num_partitions)
    loads = partition_loads(graph, labels, num_partitions)
    total_load = loads.sum()
    if total_load == 0:
        return 0.0
    capacity = additional_capacity * total_load / num_partitions
    penalties = loads / capacity

    labels = _labels_array(graph, labels)
    degrees = graph.weighted_degrees.astype(np.float64)
    safe_degrees = np.where(degrees > 0, degrees, 1.0)
    local_weight = np.zeros(graph.num_vertices, dtype=np.float64)
    if graph.storage == "mmap":
        for _, _, src, tgt, w in graph.iter_edge_chunks(_metric_chunk()):
            same = labels[src] == labels[tgt]
            np.add.at(local_weight, src[same], w[same].astype(np.float64))
    else:
        sources, targets, weights = graph.edge_array()
        same = labels[sources] == labels[targets]
        np.add.at(local_weight, sources[same], weights[same].astype(np.float64))
    per_vertex = local_weight / safe_degrees - penalties[labels]
    return float(per_vertex.sum())


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QualitySummary:
    """Bundle of the headline quality metrics for one partitioning."""

    num_partitions: int
    phi: float
    rho: float
    cut_edges: int
    score: float

    def as_row(self) -> dict[str, float | int]:
        """Render as a flat dictionary (used by the reporting helpers)."""
        return {
            "k": self.num_partitions,
            "phi": round(self.phi, 4),
            "rho": round(self.rho, 4),
            "cut_edges": self.cut_edges,
            "score": round(self.score, 2),
        }


def quality_summary(
    graph: CSRGraph,
    labels: np.ndarray,
    num_partitions: int,
    additional_capacity: float = 1.05,
) -> QualitySummary:
    """Compute :class:`QualitySummary` for a partitioning."""
    return QualitySummary(
        num_partitions=num_partitions,
        phi=locality(graph, labels),
        rho=max_normalized_load(graph, labels, num_partitions),
        cut_edges=cut_edges(graph, labels),
        score=global_score(graph, labels, num_partitions, additional_capacity),
    )
