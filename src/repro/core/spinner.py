"""High-level Spinner partitioner running on the simulated Pregel cluster.

:class:`SpinnerPartitioner` wires together the vertex program, the master
compute with the halting heuristic, the initializers for the three modes
described in the paper (from scratch, incremental after graph changes,
elastic after a change in the number of partitions) and the quality
metrics, and returns a :class:`SpinnerResult` carrying the final
assignment, the per-iteration history and the simulated cluster
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batch_program import (
    BatchSpinnerProgram,
    SpinnerInput,
    build_spinner_shard,
    weighted_view,
)
from repro.core.config import SpinnerConfig
from repro.core.elastic import elastic_initial_labels
from repro.core.halting import IterationRecord
from repro.core.incremental import Assignment, incremental_initial_labels
from repro.core.program import SpinnerMasterCompute
from repro.core.state import initial_label_array
from repro.errors import InvalidPartitionCountError
from repro.graph.csr import CSRGraph
from repro.metrics.quality import locality, max_normalized_load
from repro.pregel.cost_model import ClusterCostModel
from repro.pregel.vector_coordinator import VectorPregelEngine, VectorPregelResult


@dataclass
class SpinnerResult:
    """Outcome of a Spinner run.

    Attributes
    ----------
    labels:
        Final partition of each vertex, indexed by dense vertex id.
    original_ids:
        The original id of each dense vertex (the graph's vertex order),
        so ``(original_ids, labels)`` is the assignment a restart takes
        when the ids ascend, as in :class:`~repro.core.fast.FastSpinnerResult`.
    num_partitions:
        The number of partitions ``k``.
    iterations:
        Number of label-propagation iterations executed.
    history:
        Per-iteration quality records (``phi``, ``rho``, ``score``,
        migrations) — the data behind Figure 4.
    phi / rho:
        Final locality and balance of the partitioning.
    pregel_result:
        The underlying Pregel run (superstep statistics, aggregators),
        used by the cost-savings experiments.
    """

    labels: np.ndarray
    original_ids: np.ndarray
    num_partitions: int
    iterations: int
    history: list[IterationRecord] = field(default_factory=list)
    phi: float = 0.0
    rho: float = 1.0
    pregel_result: VectorPregelResult | None = None

    @property
    def total_messages(self) -> int:
        """Messages exchanged by the partitioning run (network cost proxy)."""
        if self.pregel_result is None:
            return 0
        return self.pregel_result.stats.total_messages

    def simulated_time(self, model: ClusterCostModel | None = None) -> float:
        """Simulated time of the partitioning run under ``model``."""
        if self.pregel_result is None:
            return 0.0
        return self.pregel_result.stats.simulated_time(model or ClusterCostModel())


class SpinnerPartitioner:
    """Spinner on the simulated Giraph cluster.

    Runs :class:`~repro.core.batch_program.BatchSpinnerProgram` on the
    array-native :class:`~repro.pregel.vector_coordinator.VectorPregelEngine`.

    Parameters
    ----------
    config:
        Algorithm parameters; defaults to the paper's settings.
    num_workers:
        Number of simulated workers executing the partitioning itself.
    cost_model:
        Cost model used when reporting simulated times.
    placement_labels:
        Optional dense label array aligned with the input's vertex order;
        a vertex runs on worker ``label mod num_workers`` (Section V-F).
        Defaults to Giraph-style hash placement, ``id mod num_workers``.
    """

    name = "spinner"

    def __init__(
        self,
        config: SpinnerConfig | None = None,
        num_workers: int = 4,
        cost_model: ClusterCostModel | None = None,
        placement_labels: np.ndarray | None = None,
    ) -> None:
        self.config = config if config is not None else SpinnerConfig()
        self.num_workers = num_workers
        self.cost_model = cost_model if cost_model is not None else ClusterCostModel()
        self.placement_labels = placement_labels

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def partition(
        self,
        graph: SpinnerInput,
        num_partitions: int,
        initial_labels: np.ndarray | None = None,
    ) -> SpinnerResult:
        """Partition ``graph`` into ``num_partitions`` parts from scratch.

        ``graph`` is a :class:`~repro.graph.csr.CSRGraph` or a
        :class:`~repro.core.batch_program.DirectedEdges` array (converted
        with eq. (3) in the first two supersteps).  ``initial_labels``,
        when given, is a dense array aligned with the graph's vertex order
        that seeds the labels instead of the random initialization.
        """
        if num_partitions <= 0:
            raise InvalidPartitionCountError(num_partitions, "must be positive")
        view = weighted_view(graph)
        labels = initial_label_array(
            initial_labels, view.num_vertices, num_partitions, self.config.seed
        )
        return self._run(graph, view, num_partitions, labels)

    def adapt_to_graph_changes(
        self,
        graph: SpinnerInput,
        previous_assignment: Assignment,
        num_partitions: int,
    ) -> SpinnerResult:
        """Incrementally adapt a partitioning after the graph changed.

        Existing vertices keep their previous label; vertices new to the
        graph are placed on the least loaded partition (Section III-D), and
        label propagation restarts from that state.
        """
        view = weighted_view(graph)
        initial = incremental_initial_labels(view, previous_assignment, num_partitions)
        return self._run(graph, view, num_partitions, initial)

    def adapt_to_partition_change(
        self,
        graph: SpinnerInput,
        previous_assignment: Assignment,
        old_num_partitions: int,
        new_num_partitions: int,
    ) -> SpinnerResult:
        """Elastically adapt a partitioning to a new number of partitions.

        Vertices re-initialize with the probabilistic migration rule of
        Section III-E (eq. 11) and label propagation restarts from there;
        the starting labels are
        :func:`~repro.core.elastic.elastic_initial_labels`, the same as
        :class:`~repro.core.fast.FastSpinner` draws for the same seed.
        """
        view = weighted_view(graph)
        initial = elastic_initial_labels(
            view,
            previous_assignment,
            old_num_partitions,
            new_num_partitions,
            seed=self.config.seed,
        )
        return self._run(graph, view, new_num_partitions, initial)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run(
        self,
        graph: SpinnerInput,
        view: CSRGraph,
        num_partitions: int,
        initial_labels: np.ndarray,
    ) -> SpinnerResult:
        labels, pregel_result = self._execute(graph, num_partitions, initial_labels)
        # After a crash recovery the engine finished on restored objects;
        # the result's master is the authoritative one, not the instance
        # _execute constructed.
        master = pregel_result.master
        return SpinnerResult(
            labels=labels,
            original_ids=view.original_ids,
            num_partitions=num_partitions,
            iterations=len(master.history),
            history=master.history,
            phi=locality(view, labels),
            rho=max_normalized_load(view, labels, num_partitions),
            pregel_result=pregel_result,
        )

    def _execute(
        self,
        graph: SpinnerInput,
        num_partitions: int,
        initial_labels: np.ndarray,
    ) -> tuple[np.ndarray, VectorPregelResult]:
        """Run the Pregel program; return the dense labels and the raw run."""
        program = BatchSpinnerProgram(
            num_partitions=num_partitions,
            config=self.config,
            convert_directed=not isinstance(graph, CSRGraph),
        )
        master = SpinnerMasterCompute(program)
        engine = VectorPregelEngine(
            num_workers=self.num_workers,
            placement_labels=self.placement_labels,
            cost_model=self.cost_model,
            max_supersteps=program.superstep_bound(),
            checkpoint_interval=self.config.checkpoint_interval,
            checkpoint_dir=self.config.checkpoint_dir,
            fault_plan=self.config.fault_plan,
        )
        spinner_shard = build_spinner_shard(engine, graph)
        program.bind(spinner_shard, initial_labels)
        pregel_result = engine.run(program, spinner_shard.shard, master=master)
        # Labels come from the result's value array (the batch program
        # returns the label array as its values): after a recovery the
        # local ``program`` is a stale copy of the restored run.
        return pregel_result.values.astype(np.int64), pregel_result
