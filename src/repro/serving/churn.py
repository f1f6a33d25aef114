"""Live churn ingestion and background incremental repartitioning.

The pipeline consumes :class:`~repro.graph.dynamic.GraphDelta` batches
(e.g. drained from an :class:`~repro.graph.dynamic.EdgeArrivalStream` or
one of the adversarial churn generators), applies them to the live
graph, and keeps two cheap trigger signals up to date:

* the number of pending edges not yet covered by a published
  repartition, and
* an incrementally-maintained estimate of the live assignment's
  locality ``phi`` — each arriving edge adjusts a running
  ``local_weight / total_weight`` pair using the *current* snapshot's
  labels, so estimating the degradation costs O(1) per edge instead of
  an O(m) metric pass.

When either threshold trips (``edge_threshold`` pending edges, or the
estimated ``phi`` dropping ``phi_drift`` below the last published
value), the service runs one repartition in the background:
:meth:`ChurnPipeline.freeze` copies the live graph and the previous
snapshot on the event loop (a bounded pause), :meth:`ChurnPipeline.execute`
runs FastSpinner anywhere (an executor thread under the service, inline
in tests and benchmarks), and :meth:`ChurnPipeline.publish` installs the
result as the next store version with a bounded migration report.
Lookups keep answering from the old snapshot throughout.

The repartition itself is Spinner's Section III-D incremental restart:
previous labels are preserved, new vertices go to the least loaded
partition (:mod:`repro.core.incremental`), and label propagation resumes
from there on the vectorized :class:`~repro.core.fast.FastSpinner`,
honouring the ``ram``/``mmap`` storage tier.  A churn-triggered run is
bit-identical to invoking ``FastSpinner.adapt_to_graph_changes`` directly
with the same seed, which the serving test suite pins.

:meth:`ChurnPipeline.ingest` validates a whole delta before it changes
anything, so a bad delta raises and leaves the live graph and the
trigger signals as they were.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinner, FastSpinnerResult
from repro.errors import ServingError
from repro.graph.dynamic import GraphDelta
from repro.graph.undirected import UndirectedGraph
from repro.serving.metrics import ServingMetrics
from repro.serving.store import AssignmentSnapshot, AssignmentStore


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the sharding service.

    Attributes
    ----------
    num_partitions:
        Number of partitions ``k`` served and repartitioned.
    edge_threshold:
        Trigger a repartition once this many pending edges accumulated;
        ``None`` disables the count trigger.
    phi_drift:
        Trigger once the estimated locality dropped this far below the
        last published ``phi``; ``None`` disables the drift trigger.
    spinner:
        Algorithm parameters of the repartitioning FastSpinner (seed,
        capacity, halting, storage tier).
    log_interval:
        Seconds between periodic structured log lines (0 disables).
    latency_sample_every:
        Lookup-latency sampling stride: one request in this many enters
        the metrics reservoir (1 records every request).
    max_pipeline_batch:
        Most buffered request lines the connection handler drains into
        one decoded batch / coalesced response write (bounds per-batch
        memory; 1 degenerates to request-per-response).
    """

    num_partitions: int
    edge_threshold: int | None = 512
    phi_drift: float | None = None
    spinner: SpinnerConfig = field(default_factory=SpinnerConfig)
    log_interval: float = 10.0
    latency_sample_every: int = 16
    max_pipeline_batch: int = 1024

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise ServingError(
                f"num_partitions must be positive, got {self.num_partitions}"
            )
        if self.edge_threshold is not None and self.edge_threshold < 1:
            raise ServingError(
                f"edge_threshold must be >= 1, got {self.edge_threshold}"
            )
        if self.phi_drift is not None and not 0.0 < self.phi_drift <= 1.0:
            raise ServingError(
                f"phi_drift must lie in (0, 1], got {self.phi_drift}"
            )
        if self.log_interval < 0:
            raise ServingError(
                f"log_interval must be >= 0, got {self.log_interval}"
            )
        if self.latency_sample_every < 1:
            raise ServingError(
                f"latency_sample_every must be >= 1, got {self.latency_sample_every}"
            )
        if self.max_pipeline_batch < 1:
            raise ServingError(
                f"max_pipeline_batch must be >= 1, got {self.max_pipeline_batch}"
            )


@dataclass(frozen=True)
class RepartitionOutcome:
    """Result of one repartitioning run, in ascending vertex-id order."""

    ids: np.ndarray
    labels: np.ndarray
    phi: float
    rho: float
    iterations: int


@dataclass(frozen=True)
class RepartitionReport:
    """Bounded migration report published alongside a snapshot swap."""

    version: int
    phi: float
    rho: float
    iterations: int
    migrations: int
    migration_fraction: float
    pending_edges_consumed: int
    wall_seconds: float
    swap_seconds: float

    def as_row(self) -> dict:
        """Flat dictionary rendering (stats op / structured logs)."""
        return {
            "version": self.version,
            "phi": round(self.phi, 4),
            "rho": round(self.rho, 4),
            "iterations": self.iterations,
            "migrations": self.migrations,
            "migration_fraction": round(self.migration_fraction, 4),
            "pending_edges_consumed": self.pending_edges_consumed,
            "wall_seconds": round(self.wall_seconds, 4),
            "swap_seconds": round(self.swap_seconds, 6),
        }


@dataclass
class RepartitionJob:
    """Frozen inputs of one background repartition.

    Created on the event loop by :meth:`ChurnPipeline.freeze`; everything
    it references is private to the job, so :meth:`ChurnPipeline.execute`
    can run in a worker thread while the live graph keeps mutating.
    """

    graph: UndirectedGraph
    previous: AssignmentSnapshot
    pending_edges: int
    started_at: float = field(default_factory=time.perf_counter)


class ChurnPipeline:
    """Accumulate churn deltas and drive incremental repartitioning."""

    def __init__(
        self,
        graph: UndirectedGraph,
        store: AssignmentStore,
        config: ServingConfig,
        metrics: ServingMetrics | None = None,
    ) -> None:
        if store.num_partitions != config.num_partitions:
            raise ServingError(
                f"store is sized for k={store.num_partitions}, "
                f"config wants k={config.num_partitions}"
            )
        self.graph = graph
        self.store = store
        self.config = config
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self.in_flight = False
        #: Test/diagnostic hook invoked (in the executing thread) after the
        #: repartition run completes but before the result is handed back for
        #: publication — the serving tests hold it open to pin that
        #: lookups racing an in-flight repartition stay consistent.
        self.post_execute_hook = None
        self._pending: list[tuple[int, int, int]] = []
        self._base_phi = 1.0
        self._base_local = 0.0
        self._base_total = 0.0
        self._pend_local = 0.0
        self._pend_total = 0.0

    @staticmethod
    def _outcome(result: FastSpinnerResult) -> RepartitionOutcome:
        ids = result.original_ids
        if ids is None:
            ids = np.arange(result.labels.shape[0], dtype=np.int64)
        return RepartitionOutcome(
            ids=ids,
            labels=result.labels,
            phi=float(result.phi),
            rho=float(result.rho),
            iterations=int(result.iterations),
        )

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self) -> RepartitionReport:
        """Compute and publish the initial partitioning (version 1)."""
        job = self.freeze()
        outcome = self.execute(job)
        return self.publish(job, outcome)

    def rebase(self, snapshot: AssignmentSnapshot) -> None:
        """Reset the phi estimator against ``snapshot`` on the live graph.

        Used after a warm start: the snapshot was published without a
        repartition run, so the estimator's base locality is measured
        directly (one O(m) pass, at startup only).
        """
        from repro.metrics.quality import locality, max_normalized_load

        labels, _ = snapshot.lookup_many(
            np.fromiter(self.graph.vertices(), dtype=np.int64, count=self.graph.num_vertices)
        )
        assignment = {
            int(v): int(label)
            for v, label in zip(self.graph.vertices(), labels.tolist())
        }
        self._base_phi = locality(self.graph, assignment)
        self._base_total = float(self.graph.total_weight)
        self._base_local = self._base_phi * self._base_total
        self._pending.clear()
        self._pend_local = 0.0
        self._pend_total = 0.0
        self.metrics.set_gauge("version", float(snapshot.version))
        self.metrics.set_gauge("phi", self._base_phi)
        self.metrics.set_gauge(
            "rho",
            max_normalized_load(self.graph, assignment, self.config.num_partitions),
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, delta: GraphDelta) -> int:
        """Apply one delta to the live graph and the trigger signals.

        Returns the number of edges actually added (duplicates of
        existing edges and self-loops are dropped, matching
        :meth:`~repro.graph.dynamic.GraphDelta.apply`).  The whole delta
        is validated first (:meth:`~repro.graph.dynamic.GraphDelta.validate`):
        a negative vertex id or a non-positive weight anywhere raises
        :class:`~repro.errors.GraphError` before anything is applied.
        Must be called from the thread that owns the live graph (the
        event loop under the service).
        """
        delta.validate()
        snapshot = self.store.current()
        new_vertices = 0
        for vertex in sorted(delta.added_vertices):
            if vertex not in self.graph:
                self.graph.add_vertex(vertex)
                new_vertices += 1
        added = 0
        for u, v, weight in delta.added_edges:
            if u == v or self.graph.has_edge(u, v):
                continue
            self.graph.add_edge(u, v, weight=weight)
            self._pending.append((u, v, weight))
            added += 1
            label_u, _ = snapshot.lookup(u)
            label_v, _ = snapshot.lookup(v)
            self._pend_total += weight
            if label_u == label_v:
                self._pend_local += weight
        self.metrics.observe_ingest(added, new_vertices)
        return added

    @property
    def pending_edges(self) -> int:
        """Edges applied to the live graph but not yet repartitioned over."""
        return len(self._pending)

    def estimated_phi(self) -> float:
        """Incremental estimate of the live assignment's locality."""
        total = self._base_total + self._pend_total
        if total <= 0:
            return 1.0
        return (self._base_local + self._pend_local) / total

    def estimated_drift(self) -> float:
        """How far the estimated phi dropped below the published base."""
        return self._base_phi - self.estimated_phi()

    def should_trigger(self) -> bool:
        """Whether a repartition should start now (and none is in flight)."""
        if self.in_flight or not self._pending:
            return False
        threshold = self.config.edge_threshold
        if threshold is not None and len(self._pending) >= threshold:
            return True
        drift = self.config.phi_drift
        return drift is not None and self.estimated_drift() >= drift

    # ------------------------------------------------------------------
    # repartition protocol: freeze -> execute -> publish
    # ------------------------------------------------------------------
    def freeze(self) -> RepartitionJob:
        """Snapshot the inputs of a repartition (bounded event-loop pause)."""
        if self.in_flight:
            raise ServingError("a repartition is already in flight")
        self.in_flight = True
        return RepartitionJob(
            graph=self.graph.copy(),
            previous=self.store.current(),
            pending_edges=len(self._pending),
        )

    def execute(self, job: RepartitionJob) -> RepartitionOutcome:
        """Run FastSpinner on the frozen inputs (safe off the event loop)."""
        spinner = FastSpinner(self.config.spinner)
        if job.previous.num_vertices == 0:
            result = spinner.partition(job.graph, self.config.num_partitions)
        else:
            result = spinner.adapt_to_graph_changes(
                job.graph, job.previous.to_assignment(), self.config.num_partitions
            )
        outcome = self._outcome(result)
        if self.post_execute_hook is not None:
            self.post_execute_hook(job, outcome)
        return outcome

    def publish(
        self, job: RepartitionJob, outcome: RepartitionOutcome
    ) -> RepartitionReport:
        """Install the outcome as the next version and rebase the signals."""
        wall_seconds = time.perf_counter() - job.started_at
        swap_start = time.perf_counter()
        snapshot = self.store.publish(outcome.ids, outcome.labels)
        swap_seconds = time.perf_counter() - swap_start

        migrations, fraction = self._migration_report(job.previous, snapshot)
        # Rebase the estimator: the run's phi is exact on the frozen
        # graph; edges that arrived after the freeze stay pending and are
        # re-scored against the fresh snapshot.
        suffix = self._pending[job.pending_edges :]
        self._pending = suffix
        self._base_phi = outcome.phi
        self._base_total = float(job.graph.total_weight)
        self._base_local = self._base_phi * self._base_total
        self._pend_local = 0.0
        self._pend_total = 0.0
        for u, v, weight in suffix:
            label_u, _ = snapshot.lookup(u)
            label_v, _ = snapshot.lookup(v)
            self._pend_total += weight
            if label_u == label_v:
                self._pend_local += weight
        self.in_flight = False

        report = RepartitionReport(
            version=snapshot.version,
            phi=outcome.phi,
            rho=outcome.rho,
            iterations=outcome.iterations,
            migrations=migrations,
            migration_fraction=fraction,
            pending_edges_consumed=job.pending_edges,
            wall_seconds=wall_seconds,
            swap_seconds=swap_seconds,
        )
        self.metrics.observe_repartition(
            version=snapshot.version,
            phi=outcome.phi,
            rho=outcome.rho,
            migrations=migrations,
            migration_fraction=fraction,
            wall_seconds=wall_seconds,
            swap_seconds=swap_seconds,
        )
        return report

    def repartition_now(self) -> RepartitionReport:
        """Freeze, execute and publish synchronously (tests, benchmarks)."""
        job = self.freeze()
        try:
            outcome = self.execute(job)
        except BaseException:
            self.in_flight = False
            raise
        return self.publish(job, outcome)

    @staticmethod
    def _migration_report(
        previous: AssignmentSnapshot, current: AssignmentSnapshot
    ) -> tuple[int, float]:
        """Count vertices whose partition changed between two snapshots.

        Vertices present only in ``current`` (born since the previous
        snapshot) are ignored — they had no previous location to move
        from, matching :func:`repro.metrics.stability.partitioning_difference`.
        """
        if previous.num_vertices == 0 or current.num_vertices == 0:
            return 0, 0.0
        position = np.minimum(
            np.searchsorted(current.ids, previous.ids), current.ids.shape[0] - 1
        )
        found = current.ids[position] == previous.ids
        moved = int(
            np.count_nonzero(current.labels[position[found]] != previous.labels[found])
        )
        common = int(np.count_nonzero(found))
        if common == 0:
            return 0, 0.0
        return moved, moved / common
