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

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.batch_program import (
    BatchSpinnerProgram,
    SpinnerInput,
    build_spinner_shard,
    weighted_view,
)
from repro.core.config import SpinnerConfig
from repro.core.elastic import resize_assignment
from repro.core.halting import IterationRecord
from repro.core.incremental import incremental_initial_labels, map_assignment_to_dense
from repro.core.program import SpinnerMasterCompute
from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.csr import CSRGraph
from repro.metrics.quality import locality, max_normalized_load
from repro.pregel.cost_model import ClusterCostModel
from repro.pregel.vector_coordinator import VectorPregelEngine, VectorPregelResult
from repro.pregel.worker import PlacementFn


@dataclass
class SpinnerResult:
    """Outcome of a Spinner run.

    Attributes
    ----------
    assignment:
        Final ``{vertex: partition}`` mapping.
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

    assignment: dict[int, int]
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
    placement:
        Optional vertex-to-worker placement function; defaults to
        Giraph-style hash placement.
    """

    name = "spinner"

    def __init__(
        self,
        config: SpinnerConfig | None = None,
        num_workers: int = 4,
        cost_model: ClusterCostModel | None = None,
        placement: PlacementFn | None = None,
    ) -> None:
        self.config = config if config is not None else SpinnerConfig()
        self.num_workers = num_workers
        self.cost_model = cost_model if cost_model is not None else ClusterCostModel()
        self.placement = placement

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def partition(
        self,
        graph: SpinnerInput,
        num_partitions: int,
        initial_assignment: Mapping[int, int] | None = None,
    ) -> SpinnerResult:
        """Partition ``graph`` into ``num_partitions`` parts from scratch.

        ``graph`` is a :class:`~repro.graph.csr.CSRGraph` or a
        :class:`~repro.core.batch_program.DirectedEdges` array (converted
        with eq. (3) in the first two supersteps).  ``initial_assignment``,
        when given, seeds the labels instead of the random initialization
        and must cover every vertex.
        """
        if num_partitions <= 0:
            raise InvalidPartitionCountError(num_partitions, "must be positive")
        view = weighted_view(graph)
        if initial_assignment is None:
            rng = np.random.default_rng(self.config.seed)
            labels = rng.integers(num_partitions, size=view.num_vertices)
        else:
            labels, found = map_assignment_to_dense(
                view, initial_assignment, num_partitions
            )
            if not found.all():
                missing = view.original_ids[~found]
                raise PartitioningError(
                    f"initial assignment misses {missing.shape[0]} vertices "
                    f"(e.g. {missing[:3].tolist()})"
                )
        return self._run(graph, view, num_partitions, labels)

    def adapt_to_graph_changes(
        self,
        graph: SpinnerInput,
        previous_assignment: Mapping[int, int],
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
        previous_assignment: Mapping[int, int],
        old_num_partitions: int,
        new_num_partitions: int,
    ) -> SpinnerResult:
        """Elastically adapt a partitioning to a new number of partitions.

        Vertices re-initialize with the probabilistic migration rule of
        Section III-E (eq. 11) and label propagation restarts from there.
        """
        resized = resize_assignment(
            previous_assignment,
            old_num_partitions,
            new_num_partitions,
            seed=self.config.seed,
        )
        view = weighted_view(graph)
        initial = incremental_initial_labels(view, resized, new_num_partitions)
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
            assignment=dict(zip(view.original_ids.tolist(), labels.tolist())),
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
            placement=self.placement,
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
