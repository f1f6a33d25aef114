"""Exception hierarchy shared across the repro package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  Modules raise the most specific subclass
that describes the failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid graph operations."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex that does not exist."""

    def __init__(self, vertex_id: int) -> None:
        super().__init__(f"vertex {vertex_id!r} does not exist in the graph")
        self.vertex_id = vertex_id


class GraphFormatError(GraphError):
    """Raised when a graph file cannot be parsed."""


class PartitioningError(ReproError):
    """Raised for invalid partitioning configurations or states."""


class InvalidPartitionCountError(PartitioningError):
    """Raised when the requested number of partitions is not usable."""

    def __init__(self, num_partitions: int, reason: str = "") -> None:
        message = f"invalid number of partitions: {num_partitions}"
        if reason:
            message = f"{message} ({reason})"
        super().__init__(message)
        self.num_partitions = num_partitions


class ConfigurationError(ReproError):
    """Raised when algorithm parameters are outside their valid domain."""


class PregelError(ReproError):
    """Raised for errors in the simulated Pregel engine."""


class AggregatorError(PregelError):
    """Raised when an aggregator is redefined or used inconsistently."""


class CheckpointError(PregelError):
    """Raised when a checkpoint cannot be written, found or read back."""


class RecoveryAbortedError(PregelError):
    """Raised when a run exhausts its crash-recovery budget.

    Carries the superstep of the fatal fault and the number of recoveries
    already performed, so callers (and the CLI) can report a one-line
    diagnosis instead of a traceback.
    """

    def __init__(self, superstep: int, recoveries: int) -> None:
        super().__init__(
            f"aborting after {recoveries} recover{'y' if recoveries == 1 else 'ies'}: "
            f"crash budget exhausted by a fault at superstep {superstep}; "
            "the latest checkpoint remains on disk for resume_from_checkpoint()"
        )
        self.superstep = superstep
        self.recoveries = recoveries


class ServingError(ReproError):
    """Raised for invalid operations against the online sharding service."""
