"""Coordinator of the array-native, sharded Pregel runtime.

The vector runtime executes *batch* vertex programs
(:class:`~repro.pregel.batch.BatchVertexProgram`) over flat NumPy arrays
with the same observable semantics as a per-vertex Pregel engine (one
Python ``compute`` call per vertex, kept as the test oracle): final
values, superstep counts, halt reasons, aggregator histories and
per-worker statistics are bit-exact, not approximate
(``tests/test_vector_engine.py`` pins the contract).

This module holds graph sharding, the outer superstep protocol
(checkpoints, master compute, quiescence, fault injection — see
:mod:`repro.pregel.run_loop`), the superstep
itself — compute, deliver, commit, all in-process over whole-graph
arrays, with the kernels in :mod:`repro.pregel.executor` — and result
assembly.  The program interface and data-plane types live in
:mod:`repro.pregel.batch`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import PregelError
from repro.faults import FaultPlan, InjectedWorkerCrash
from repro.graph.csr import CSRGraph
from repro.pregel.aggregators import AggregatorRegistry
from repro.pregel.batch import (
    BatchComputeContext,
    BatchVertexProgram,
    DeliveredMessages,
    Outbox,
    ShardedGraph,
    _neutral_payload,
)
from repro.pregel.checkpoint import (
    CheckpointManager,
    RecoveryBookkeeping,
    Snapshot,
    apply_delivery_faults,
    validate_fault_tolerance_args as _validate_fault_tolerance_args,
)
from repro.pregel.cost_model import ClusterCostModel, RunStats
from repro.pregel.executor import (
    build_superstep_stats,
    combine_messages,
    superstep_stats_arrays,
)
from repro.pregel.master import MasterCompute
from repro.pregel.run_loop import (
    finalize_run_stats,
    record_aggregator_history,
    run_with_recovery,
    superstep_preamble,
)


@dataclass
class _VectorRunState:
    """Everything the vector engine needs to continue a run.

    The checkpoint counterpart of ``engine._DictRunState``: the dynamic
    arrays (vertex values, halted mask, combined in-flight messages) plus
    the object state (program, master, aggregators and history, run
    statistics, worker stores).  The static :class:`ShardedGraph` is
    *not* here — it never changes during a run, so snapshots store its
    arrays once per checkpoint directory (``shard.npz``) instead of once
    per snapshot.
    """

    program: BatchVertexProgram
    master: MasterCompute | None
    values: np.ndarray
    halted: np.ndarray
    incoming: DeliveredMessages
    run_stats: RunStats
    aggregators: AggregatorRegistry
    aggregator_history: dict[str, list[Any]]
    worker_stores: list[dict[str, Any]]
    superstep: int = 0


@dataclass
class VectorPregelResult:
    """Outcome of a vector-engine run.

    A crash recovery restores the run from
    a checkpoint: the program/master objects the caller passed in may end
    up stale copies, so final state must be read from the result
    (``values``, ``master``), never from the inputs.
    """

    values: np.ndarray
    original_ids: np.ndarray
    num_supersteps: int
    stats: RunStats
    aggregators: AggregatorRegistry
    aggregator_history: dict[str, list[Any]]
    halt_reason: str = "converged"
    #: The master compute the run actually finished with (``None`` when
    #: the run had no master); after a recovery, the restored instance.
    master: MasterCompute | None = None

    def vertex_values(self) -> dict[int, Any]:
        """Mapping of original vertex id to final value (as floats)."""
        return dict(zip(self.original_ids.tolist(), self.values.tolist()))

    def simulated_time(self, model: ClusterCostModel) -> float:
        """Total simulated runtime under ``model``."""
        return self.stats.simulated_time(model)


class VectorPregelEngine:
    """Sharded, array-native simulation of a Giraph cluster.

    Takes an optional vertex placement, a cost model and an optional
    master compute, and runs :class:`BatchVertexProgram` s: one batch
    compute per superstep instead of one ``compute`` call per vertex.

    Vertex ``v`` runs on worker ``v mod num_workers`` (Giraph's hash
    placement) unless ``placement_labels`` is given: a dense label array
    aligned with the vertex order of the graph being sharded, which puts
    vertex ``i`` on worker ``placement_labels[i] mod num_workers``, so
    vertices sharing a partition label share a worker (Section V-F).
    """

    def __init__(
        self,
        num_workers: int = 4,
        placement_labels: np.ndarray | None = None,
        cost_model: ClusterCostModel | None = None,
        max_supersteps: int = 500,
        drop_unknown_targets: bool = False,
        checkpoint_interval: int | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if num_workers <= 0:
            raise PregelError("num_workers must be positive")
        if max_supersteps <= 0:
            raise PregelError("max_supersteps must be positive")
        _validate_fault_tolerance_args(checkpoint_interval, checkpoint_dir, fault_plan)
        self.num_workers = num_workers
        self.placement_labels = (
            None if placement_labels is None else np.asarray(placement_labels, dtype=np.int64)
        )
        self.cost_model = cost_model if cost_model is not None else ClusterCostModel()
        self.max_supersteps = max_supersteps
        self.drop_unknown_targets = drop_unknown_targets
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_dir = checkpoint_dir
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    # graph loading
    # ------------------------------------------------------------------
    def shard_graph(
        self,
        indptr: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        original_ids: np.ndarray,
    ) -> ShardedGraph:
        """Place every vertex and build the sharded adjacency.

        Vertex ids and placement labels must be non-negative; a vertex's
        worker is its placement label (else its id) mod ``num_workers``.
        """
        original_ids = np.asarray(original_ids, dtype=np.int64)
        if original_ids.size and int(original_ids.min()) < 0:
            raise PregelError("vertex ids must be non-negative")
        keys = original_ids
        if self.placement_labels is not None:
            keys = self.placement_labels
            if keys.shape != original_ids.shape:
                raise PregelError(
                    f"expected {original_ids.shape[0]} placement labels, got {keys.size}"
                )
            if keys.size and int(keys.min()) < 0:
                raise PregelError("placement labels must be non-negative")
        return ShardedGraph(
            indptr, targets, weights, original_ids, keys % self.num_workers, self.num_workers
        )

    def shard_csr(self, csr: CSRGraph) -> ShardedGraph:
        """Shard a :class:`CSRGraph` (undirected: slots are out-edges)."""
        return self.shard_graph(csr.indptr, csr.indices, csr.weights, csr.original_ids)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: BatchVertexProgram,
        shard: ShardedGraph,
        master: MasterCompute | None = None,
    ) -> VectorPregelResult:
        """Execute ``program`` over ``shard`` until convergence.

        When checkpointing is enabled and a fault recovery occurred, the
        run continues on state restored from a snapshot — read final
        state from the returned :class:`VectorPregelResult` (``values``,
        ``master``), not from the ``program``/``master`` arguments.
        """
        combine = program.combine
        if combine not in ("sum", "min"):
            raise PregelError(f"unsupported combine mode {combine!r}")
        num_vertices = shard.num_vertices

        aggregators = AggregatorRegistry()
        program.register_aggregators(aggregators)
        if master is not None:
            master.initialize(aggregators)

        state = _VectorRunState(
            program=program,
            master=master,
            values=np.zeros(num_vertices, dtype=np.float64),
            halted=np.zeros(num_vertices, dtype=bool),
            incoming=DeliveredMessages(
                np.zeros(num_vertices, dtype=bool),
                _neutral_payload(combine, num_vertices),
                0,
            ),
            run_stats=RunStats(),
            aggregators=aggregators,
            aggregator_history={name: [] for name in aggregators.names()},
            worker_stores=[{} for _ in range(self.num_workers)],
        )
        manager = None
        if self.checkpoint_interval is not None:
            manager = CheckpointManager(self.checkpoint_dir, self.checkpoint_interval)
        if self.fault_plan is not None:
            self.fault_plan.reset()
        return self._execute(
            state, shard, manager, self.fault_plan, RecoveryBookkeeping()
        )

    def _execute(
        self,
        state: _VectorRunState,
        shard: ShardedGraph,
        manager: CheckpointManager | None,
        plan: FaultPlan | None,
        bookkeeping: RecoveryBookkeeping,
    ) -> VectorPregelResult:
        """Run to completion, recovering injected crashes from snapshots.

        A crash rolls back to the latest snapshot written this run; an exhausted ``max_recoveries``
        budget aborts with :class:`~repro.errors.RecoveryAbortedError`,
        leaving the checkpoint directory ready for
        :func:`~repro.pregel.checkpoint.resume_from_checkpoint`.
        """

        def restore() -> _VectorRunState:
            return self._state_from_snapshot(manager.load_latest(this_run_only=True))

        def loop(current: _VectorRunState) -> VectorPregelResult:
            return self._superstep_loop(current, shard, manager, plan, bookkeeping)

        return run_with_recovery(loop, state, restore, plan, bookkeeping)

    def _engine_params(self) -> dict[str, Any]:
        """Constructor arguments a snapshot needs to rebuild this engine.

        The placement labels are excluded: the shard's ``worker_of`` array already encodes the placement.
        Snapshots written by older versions may carry extra keys (such
        as ``parallel``); :meth:`_resume_from_snapshot` reads only the
        keys it names, so they resume unchanged.
        """
        return {
            "num_workers": self.num_workers,
            "cost_model": self.cost_model,
            "max_supersteps": self.max_supersteps,
            "drop_unknown_targets": self.drop_unknown_targets,
        }

    @staticmethod
    def _state_from_snapshot(snapshot: Snapshot) -> _VectorRunState:
        """Rebuild a :class:`_VectorRunState` from a loaded snapshot."""
        arrays = snapshot.arrays
        objects = snapshot.objects
        return _VectorRunState(
            program=objects["program"],
            master=objects["master"],
            values=arrays["values"],
            halted=arrays["halted"],
            incoming=DeliveredMessages(
                arrays["msg_has"], arrays["msg_payload"], int(objects["msg_count"])
            ),
            run_stats=objects["run_stats"],
            aggregators=objects["aggregators"],
            aggregator_history=objects["aggregator_history"],
            worker_stores=objects["worker_stores"],
            superstep=snapshot.superstep,
        )

    @classmethod
    def _resume_from_snapshot(
        cls,
        snapshot: Snapshot,
        checkpoint_dir: str | os.PathLike,
        fault_plan: FaultPlan | None = None,
    ) -> VectorPregelResult:
        """Rebuild engine and shard from ``checkpoint_dir`` and finish.

        The static CSR arrays come from the directory's ``shard.npz``;
        :class:`ShardedGraph` recomputes its canonical orderings from
        them deterministically (stable argsorts), so a resumed run sends
        and aggregates in exactly the original order.
        """
        params = snapshot.engine_params
        engine = cls(
            num_workers=params["num_workers"],
            cost_model=params["cost_model"],
            max_supersteps=params["max_supersteps"],
            drop_unknown_targets=params["drop_unknown_targets"],
            checkpoint_interval=snapshot.interval,
            checkpoint_dir=checkpoint_dir,
            fault_plan=fault_plan,
        )
        manager = CheckpointManager(checkpoint_dir, snapshot.interval)
        manager._written.add(snapshot.superstep)
        shard_arrays = manager.load_shard_arrays()
        shard = ShardedGraph(
            shard_arrays["indptr"],
            shard_arrays["targets"],
            shard_arrays["weights"],
            shard_arrays["original_ids"],
            shard_arrays["worker_of"],
            int(shard_arrays["num_workers"][0]),
        )
        if fault_plan is not None:
            fault_plan.reset()
        state = cls._state_from_snapshot(snapshot)
        return engine._execute(state, shard, manager, fault_plan, RecoveryBookkeeping())

    @staticmethod
    def _shard_arrays(shard: ShardedGraph) -> dict[str, np.ndarray]:
        """The static shard arrays persisted once per checkpoint dir."""
        return {
            "indptr": shard.indptr,
            "targets": shard.adj_targets,
            "weights": shard.adj_weights,
            "original_ids": shard.original_ids,
            "worker_of": shard.worker_of,
            "num_workers": np.array([shard.num_workers], dtype=np.int64),
        }

    def _superstep_loop(
        self,
        state: _VectorRunState,
        shard: ShardedGraph,
        manager: CheckpointManager | None,
        plan: FaultPlan | None,
        bookkeeping: RecoveryBookkeeping,
    ) -> VectorPregelResult:
        program = state.program
        master = state.master
        worker_stores = state.worker_stores
        run_stats = state.run_stats
        aggregators = state.aggregators
        aggregator_history = state.aggregator_history
        halt_reason = "converged"

        def save_checkpoint(superstep: int) -> None:
            # Superstep-boundary checkpoint, before the master computes.
            if manager is None or not manager.due(superstep):
                return
            arrays = {
                "values": state.values,
                "halted": state.halted,
                "msg_has": state.incoming.has_message,
                "msg_payload": state.incoming.payload,
            }
            objects = {
                "program": program,
                "master": master,
                "msg_count": state.incoming.count,
                "run_stats": run_stats,
                "aggregators": aggregators,
                "aggregator_history": aggregator_history,
                "worker_stores": worker_stores,
            }
            if manager.save_vector(
                superstep,
                arrays,
                objects,
                self._engine_params(),
                self._shard_arrays(shard),
            ):
                bookkeeping.checkpoints_written += 1

        def quiescent() -> bool:
            any_active = bool((~state.halted).any())
            return state.superstep > 0 and state.incoming.count == 0 and not any_active

        while True:
            superstep = state.superstep
            reason = superstep_preamble(
                superstep,
                self.max_supersteps,
                save_checkpoint,
                master,
                aggregators,
                quiescent,
            )
            if reason is not None:
                halt_reason = reason
                break

            # Probe the crash plan in worker order before the batch
            # compute: the batch is one barrier, so a crashing worker
            # takes the whole superstep down, but the fault budget is
            # consumed one worker at a time, in worker order.
            if plan is not None:
                for worker in range(self.num_workers):
                    if plan.crash_fires(superstep, worker):
                        raise InjectedWorkerCrash(superstep, worker)

            for store in worker_stores:
                store.clear()
                program.pre_superstep(superstep, store, aggregators)

            values, halted, outbox, unknown = self._compute(state, shard, superstep)

            for store in worker_stores:
                program.post_superstep(superstep, store, aggregators)

            record_aggregator_history(aggregators, aggregator_history)

            delivered = self._deliver(
                superstep,
                outbox,
                unknown,
                shard.num_vertices,
                program.combine,
                run_stats,
            )
            # The synchronous barrier: transient delivery faults retry
            # here (simulated backoff) and may escalate to a crash.
            if plan is not None:
                apply_delivery_faults(plan, superstep, bookkeeping)

            state.values = values
            state.halted = halted
            state.incoming = delivered
            state.superstep = superstep + 1

        finalize_run_stats(run_stats, bookkeeping)
        return VectorPregelResult(
            values=state.values,
            original_ids=shard.original_ids,
            num_supersteps=state.superstep,
            stats=run_stats,
            aggregators=aggregators,
            aggregator_history=aggregator_history,
            halt_reason=halt_reason,
            master=master,
        )

    def _compute(
        self, state: _VectorRunState, shard: ShardedGraph, superstep: int
    ) -> tuple[np.ndarray, np.ndarray, Outbox, np.ndarray]:
        """Run the batch program over the shard for one superstep.

        Appends the superstep's statistics to ``state.run_stats`` and
        returns the new ``(values, halted)`` arrays, the outbox and its
        unknown-target mask, pending delivery and commit.
        """
        incoming = state.incoming
        # A message re-activates its target; already-active vertices
        # compute regardless.
        computed = incoming.has_message | ~state.halted

        ctx = BatchComputeContext(
            superstep, shard, state.values, computed, state.aggregators
        )
        step = state.program.compute_batch(shard, incoming, ctx)
        values = np.asarray(step.values, dtype=np.float64)
        votes = np.asarray(step.votes, dtype=bool)
        halted = np.where(computed, votes, state.halted)

        # Unknown-target mask, computed once and shared by the
        # statistics and delivery passes.
        outbox = step.outbox
        unknown = (outbox.targets < 0) | (outbox.targets >= shard.num_vertices)

        state.run_stats.superstep_stats.append(
            build_superstep_stats(
                superstep,
                self.num_workers,
                *superstep_stats_arrays(
                    shard,
                    self.num_workers,
                    computed,
                    outbox,
                    unknown,
                    step.edges_scanned,
                ),
            )
        )
        return values, halted, outbox, unknown

    def _deliver(
        self,
        superstep: int,
        outbox: Outbox,
        unknown: np.ndarray,
        num_vertices: int,
        combine: str,
        run_stats: RunStats,
    ) -> DeliveredMessages:
        """Combine the outbox per target vertex for the next superstep.

        Raises :class:`~repro.errors.PregelError` on unknown targets
        unless the engine drops them (counted in ``run_stats``).
        """
        targets = outbox.targets
        payloads = outbox.payloads
        if unknown.any():
            if not self.drop_unknown_targets:
                bad_ids = np.unique(targets[unknown])
                raise PregelError(
                    f"messages sent to {bad_ids.shape[0]} nonexistent "
                    f"vertex id(s) during superstep {superstep} "
                    f"(e.g. {bad_ids[:5].tolist()}); pass "
                    "drop_unknown_targets=True to drop them instead"
                )
            run_stats.messages_dropped += int(unknown.sum())
            targets = targets[~unknown]
            payloads = payloads[~unknown]
        has_message, payload = combine_messages(
            targets, payloads, num_vertices, combine
        )
        return DeliveredMessages(has_message, payload, int(targets.size))

    # ------------------------------------------------------------------
    def run_on_csr(
        self,
        program: BatchVertexProgram,
        csr: CSRGraph,
        master: MasterCompute | None = None,
    ) -> VectorPregelResult:
        """Convenience wrapper: shard a CSR graph and run ``program``."""
        return self.run(program, self.shard_csr(csr), master=master)
