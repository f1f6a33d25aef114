"""Spinner configuration.

The paper's algorithm has one primary tuning parameter, the additional
capacity ``c`` (eq. 5), plus the halting thresholds ``epsilon`` and ``w``
(Section III-C).  The evaluation uses ``c = 1.05``, ``epsilon = 0.001`` and
``w = 5`` throughout; these are the defaults here.

The remaining switches expose the design choices that the ablation
benchmarks toggle (balance penalty, probabilistic migration dampening,
per-worker asynchronous load updates, preference for the current label
on ties).  Where the graph lives is not a setting: FastSpinner streams an
opened on-disk store (:func:`repro.graph.mmap_store.open_store`, whose
``chunk_half_edges`` sets the streaming chunk) and runs any other graph
in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.faults import FaultPlan

#: Paper defaults (Section V-A).
DEFAULT_ADDITIONAL_CAPACITY = 1.05
DEFAULT_HALT_THRESHOLD = 0.001
DEFAULT_HALT_WINDOW = 5
DEFAULT_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class SpinnerConfig:
    """Parameters of the Spinner algorithm.

    Attributes
    ----------
    additional_capacity:
        The constant ``c > 1`` of eq. (5).  Larger values allow more
        migrations per iteration (faster convergence) at the cost of a
        looser balance bound (``rho <= c`` with high probability).
    halt_threshold:
        ``epsilon`` of the halting heuristic: the minimum relative score
        improvement that counts as progress.
    halt_window:
        ``w`` of the halting heuristic: number of consecutive iterations
        without significant improvement required before halting.
    max_iterations:
        Hard bound on label-propagation iterations.
    seed:
        Seed for the random initialization and the probabilistic migration
        decisions; runs are deterministic for a fixed seed.
    balance_penalty:
        Whether the penalty term of eq. (8) is applied (ablation switch).
    probabilistic_migration:
        Whether candidates migrate with probability ``r(l)/m(l)`` (eq. 14)
        rather than unconditionally (ablation switch).
    worker_local_updates:
        Whether candidates update per-worker load counters asynchronously
        within a superstep (Section IV-A4; Pregel implementation only).
    prefer_current_label:
        Whether ties in the score function keep the current label
        (Section III-A's tie-breaking rule).
    checkpoint_interval:
        Snapshot the Pregel run into ``checkpoint_dir`` every this many
        supersteps (superstep-boundary checkpointing, Giraph style).
        Requires ``checkpoint_dir``; ``None`` disables checkpointing.
        Honoured by the Pregel-backed
        :class:`~repro.core.spinner.SpinnerPartitioner`; ignored by
        :class:`~repro.core.fast.FastSpinner`.
    checkpoint_dir:
        Directory for checkpoint snapshots (created if missing).
    fault_plan:
        Deterministic :class:`~repro.faults.FaultPlan` of injected worker
        crashes and message-delivery failures; requires checkpointing,
        because crashes recover from the latest checkpoint.  Excluded
        from equality comparisons (it carries mutable firing counters).
    """

    additional_capacity: float = DEFAULT_ADDITIONAL_CAPACITY
    halt_threshold: float = DEFAULT_HALT_THRESHOLD
    halt_window: int = DEFAULT_HALT_WINDOW
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    seed: int = 42
    balance_penalty: bool = True
    probabilistic_migration: bool = True
    worker_local_updates: bool = True
    prefer_current_label: bool = True
    checkpoint_interval: int | None = None
    checkpoint_dir: str | None = None
    fault_plan: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.additional_capacity <= 1.0:
            raise ConfigurationError(
                f"additional_capacity must be > 1, got {self.additional_capacity}"
            )
        if self.halt_threshold < 0:
            raise ConfigurationError("halt_threshold must be non-negative")
        if self.halt_window < 1:
            raise ConfigurationError("halt_window must be at least 1")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        if (self.checkpoint_interval is None) != (self.checkpoint_dir is None):
            raise ConfigurationError(
                "checkpoint_interval and checkpoint_dir must be given together"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.fault_plan is not None and self.checkpoint_interval is None:
            raise ConfigurationError(
                "a fault_plan requires checkpointing "
                "(set checkpoint_interval and checkpoint_dir)"
            )

    def with_options(self, **overrides) -> "SpinnerConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)

    def capacity(self, total_load: float, num_partitions: int) -> float:
        """Partition capacity ``C = c * total_load / k`` (eq. 5).

        ``total_load`` is the sum of weighted vertex degrees, which equals
        twice the total undirected edge weight.
        """
        if num_partitions <= 0:
            raise ConfigurationError("num_partitions must be positive")
        return self.additional_capacity * total_load / num_partitions
