"""Run-loop scaffolding of the Pregel runtime.

The outer superstep protocol lives here, apart from the superstep body of
:mod:`repro.pregel.vector_coordinator`: a checkpoint/recovery wrapper
around the superstep loop, a fixed superstep-boundary preamble (bound
check → checkpoint → master compute → quiescence test), aggregator
history recording after every superstep, and the final copy of the
recovery bookkeeping counters onto the run statistics.  The per-vertex
reference engine of the test suite reuses the preamble and the history
recording, so both execute the identical protocol.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

from repro.errors import RecoveryAbortedError
from repro.faults import FaultPlan, InjectedWorkerCrash
from repro.pregel.aggregators import AggregatorRegistry
from repro.pregel.checkpoint import RecoveryBookkeeping
from repro.pregel.cost_model import RunStats
from repro.pregel.master import MasterCompute

StateT = TypeVar("StateT")
ResultT = TypeVar("ResultT")


def run_with_recovery(
    superstep_loop: Callable[[StateT], ResultT],
    state: StateT,
    restore: Callable[[], StateT],
    plan: FaultPlan | None,
    bookkeeping: RecoveryBookkeeping,
) -> ResultT:
    """Run ``superstep_loop`` to completion, recovering injected crashes.

    Each :class:`~repro.faults.InjectedWorkerCrash` rolls the run back to
    the state produced by ``restore()`` (the latest snapshot written this
    run); partial-superstep state is discarded wholesale.  When the
    plan's ``max_recoveries`` budget is exhausted the run aborts with
    :class:`~repro.errors.RecoveryAbortedError`, leaving the latest
    checkpoint on disk for
    :func:`~repro.pregel.checkpoint.resume_from_checkpoint`.
    """
    while True:
        try:
            return superstep_loop(state)
        except InjectedWorkerCrash as crash:
            bookkeeping.recoveries += 1
            if plan is None or bookkeeping.recoveries > plan.max_recoveries:
                raise RecoveryAbortedError(
                    crash.superstep, bookkeeping.recoveries - 1
                ) from crash
            state = restore()


def superstep_preamble(
    superstep: int,
    max_supersteps: int,
    save_checkpoint: Callable[[int], None],
    master: MasterCompute | None,
    aggregators: AggregatorRegistry,
    quiescent: Callable[[], bool],
) -> str | None:
    """Shared superstep-boundary protocol; returns a halt reason or ``None``.

    The order is part of the equivalence contract with the reference engine:
    the ``max_supersteps`` bound is checked first, then a checkpoint is
    taken (*before* the master computes, so a restore replays the master
    exactly once; superstep 0 is always due, guaranteeing a recovery base
    before any fault can fire), then the master runs and may request a
    halt, and finally the standard Pregel termination test — every vertex
    halted and no messages in flight — ends the run with ``converged``.
    """
    if superstep >= max_supersteps:
        return "max_supersteps"
    save_checkpoint(superstep)
    if master is not None:
        master.compute(superstep, aggregators)
        if master.halt_requested:
            return "master_halt"
    if quiescent():
        return "converged"
    return None


def record_aggregator_history(
    aggregators: AggregatorRegistry, history: dict[str, list[Any]]
) -> None:
    """Publish the superstep's aggregator values and append them to ``history``."""
    aggregators.advance_superstep()
    for name in aggregators.names():
        history.setdefault(name, []).append(aggregators.value(name))


def finalize_run_stats(run_stats: RunStats, bookkeeping: RecoveryBookkeeping) -> None:
    """Copy the recovery bookkeeping counters onto the final ``run_stats``."""
    run_stats.checkpoints_written = bookkeeping.checkpoints_written
    run_stats.recoveries = bookkeeping.recoveries
    run_stats.delivery_retries = bookkeeping.delivery_retries
