"""The Spinner superstep schedule and master compute (paper Section IV).

The algorithm is organized in the phases of Figure 2 of the paper, each
implemented as one Pregel superstep:

``NeighborPropagation`` (directed inputs only)
    Every vertex sends its id along its outgoing edges so that incoming
    edges can be discovered.
``NeighborDiscovery`` (directed inputs only)
    Every vertex processes the received ids: an already-known neighbour
    gets edge weight 2 (reciprocal pair), an unknown one is added with
    weight 1 — the weighted undirected conversion of eq. (3).
``Initialize``
    Every vertex takes its initial label (random for scratch partitioning,
    the previous label for incremental/elastic runs — the initial labels
    are decided by the caller and stored in the vertex value), contributes
    its weighted degree to its partition's load aggregator and announces
    its label to its neighbours.
``ComputeScores`` / ``ComputeMigrations``
    One label-propagation iteration, split in two supersteps exactly as in
    Section IV-A2/3: the first computes the best label per vertex and
    aggregates the candidate load ``m(l)``; the second performs the
    probabilistic migration (eq. 14), updates the load aggregators and
    notifies neighbours of label changes.

Partition loads, candidate loads, the number of migrations and the global
score are all maintained through aggregators, mirroring the sharded
aggregators of the Giraph implementation (Section IV-A5).  This module
holds what every implementation of the schedule shares: the phase
bookkeeping, the aggregator names and the halting master compute.  The
program itself is :class:`~repro.core.batch_program.BatchSpinnerProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.halting import HaltingTracker
from repro.pregel.aggregators import (
    AggregatorRegistry,
    DoubleSumAggregator,
    LongSumAggregator,
)
from repro.pregel.master import MasterCompute

# Phase names (Figure 2 of the paper).
NEIGHBOR_PROPAGATION = "neighbor_propagation"
NEIGHBOR_DISCOVERY = "neighbor_discovery"
INITIALIZE = "initialize"
COMPUTE_SCORES = "compute_scores"
COMPUTE_MIGRATIONS = "compute_migrations"

@dataclass(frozen=True)
class IterationRecord:
    """Quality metrics of one label-propagation iteration."""

    iteration: int
    phi: float
    rho: float
    score: float
    migrations: int = 0


def load_aggregator_name(label: int) -> str:
    """Aggregator name holding the load ``b(l)`` of a partition."""
    return f"spinner_load_{label}"


def candidate_aggregator_name(label: int) -> str:
    """Aggregator name holding the candidate load ``m(l)`` of a partition."""
    return f"spinner_candidates_{label}"


SCORE_AGGREGATOR = "spinner_score"
LOCAL_WEIGHT_AGGREGATOR = "spinner_local_weight"
MIGRATIONS_AGGREGATOR = "spinner_migrations"


class SpinnerPhaseSchedule:
    """Superstep bookkeeping shared by both Spinner vertex programs.

    Maps superstep indices onto the phases of Figure 2 (optionally offset
    by the two directed-conversion supersteps), so the array-native
    :class:`~repro.core.batch_program.BatchSpinnerProgram` and the
    per-vertex reference program kept as a test oracle execute the
    identical schedule and share :class:`SpinnerMasterCompute`.

    Parameters
    ----------
    num_partitions:
        The number of partitions ``k``.
    config:
        Algorithm parameters.
    convert_directed:
        Whether the NeighborPropagation/NeighborDiscovery conversion
        supersteps run (directed input graphs only).
    """

    def __init__(
        self,
        num_partitions: int,
        config: SpinnerConfig,
        convert_directed: bool,
    ) -> None:
        self.num_partitions = num_partitions
        self.config = config
        self.convert_directed = convert_directed
        self._rng = np.random.default_rng(config.seed)
        self._phase_offset = 2 if convert_directed else 0

    # ------------------------------------------------------------------
    # phase bookkeeping
    # ------------------------------------------------------------------
    def phase(self, superstep: int) -> str:
        """Map a superstep index to the algorithm phase it implements."""
        if self.convert_directed:
            if superstep == 0:
                return NEIGHBOR_PROPAGATION
            if superstep == 1:
                return NEIGHBOR_DISCOVERY
        if superstep == self._phase_offset:
            return INITIALIZE
        relative = superstep - self._phase_offset - 1
        return COMPUTE_SCORES if relative % 2 == 0 else COMPUTE_MIGRATIONS

    def iteration_of(self, superstep: int) -> int:
        """Label-propagation iteration index a superstep belongs to."""
        relative = superstep - self._phase_offset - 1
        return max(relative // 2, 0)

    def superstep_bound(self) -> int:
        """Safe upper bound on supersteps for ``config.max_iterations``."""
        return self._phase_offset + 2 + 2 * (self.config.max_iterations + 1)

    # ------------------------------------------------------------------
    # aggregators
    # ------------------------------------------------------------------
    def register_aggregators(self, aggregators: AggregatorRegistry) -> None:
        """Register the per-partition load/candidate and global aggregators."""
        for label in range(self.num_partitions):
            aggregators.register(load_aggregator_name(label), DoubleSumAggregator())
            aggregators.register(candidate_aggregator_name(label), DoubleSumAggregator())
        aggregators.register(SCORE_AGGREGATOR, DoubleSumAggregator())
        aggregators.register(LOCAL_WEIGHT_AGGREGATOR, DoubleSumAggregator())
        aggregators.register(MIGRATIONS_AGGREGATOR, LongSumAggregator())


class SpinnerMasterCompute(MasterCompute):
    """Master compute implementing the halting heuristic (Section III-C).

    The master runs before every superstep; right after a ComputeScores
    superstep it observes the freshly aggregated global score, partition
    loads and local edge weight, records an :class:`IterationRecord` and
    halts the computation once the score has been steady for ``w``
    iterations (or ``max_iterations`` is reached).
    """

    def __init__(self, program: SpinnerPhaseSchedule) -> None:
        super().__init__()
        self.program = program
        self.config = program.config
        self.tracker = HaltingTracker(
            threshold=self.config.halt_threshold, window=self.config.halt_window
        )
        self.history: list[IterationRecord] = []
        self._pending_migrations = 0

    def compute(self, superstep: int, aggregators: AggregatorRegistry) -> None:
        """Record iteration quality after each ComputeScores superstep and halt on steady state."""
        if superstep == 0:
            return
        previous_phase = self.program.phase(superstep - 1)
        if previous_phase == COMPUTE_MIGRATIONS:
            self._pending_migrations = int(aggregators.value(MIGRATIONS_AGGREGATOR))
            return
        if previous_phase != COMPUTE_SCORES:
            return

        iteration = self.program.iteration_of(superstep - 1)
        loads = np.array(
            [
                aggregators.value(load_aggregator_name(label))
                for label in range(self.program.num_partitions)
            ],
            dtype=np.float64,
        )
        total_load = float(loads.sum())
        score = float(aggregators.value(SCORE_AGGREGATOR))
        local_weight = float(aggregators.value(LOCAL_WEIGHT_AGGREGATOR))
        phi = local_weight / total_load if total_load else 1.0
        ideal = total_load / self.program.num_partitions if total_load else 1.0
        rho = float(loads.max() / ideal) if ideal else 1.0
        self.history.append(
            IterationRecord(
                iteration=iteration,
                phi=phi,
                rho=rho,
                score=score,
                migrations=self._pending_migrations,
            )
        )
        self._pending_migrations = 0

        if iteration + 1 >= self.config.max_iterations:
            self.halt_computation()
            return
        if self.tracker.update(score):
            self.halt_computation()
