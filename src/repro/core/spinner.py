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

from repro.core.batch_program import BatchSpinnerProgram, build_spinner_shard
from repro.core.config import SpinnerConfig
from repro.core.elastic import resize_assignment
from repro.core.halting import IterationRecord
from repro.core.incremental import incremental_initial_assignment
from repro.core.program import SpinnerMasterCompute
from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.conversion import ensure_undirected
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph
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
        graph: DiGraph | UndirectedGraph,
        num_partitions: int,
        initial_assignment: Mapping[int, int] | None = None,
    ) -> SpinnerResult:
        """Partition ``graph`` into ``num_partitions`` parts from scratch.

        When ``initial_assignment`` is provided it seeds the labels instead
        of the random initialization (it must cover every vertex); this is
        the hook the incremental and elastic entry points build on.
        """
        if num_partitions <= 0:
            raise InvalidPartitionCountError(num_partitions, "must be positive")
        initial = self._resolve_initial_assignment(graph, num_partitions, initial_assignment)
        return self._run(graph, num_partitions, initial)

    def adapt_to_graph_changes(
        self,
        graph: UndirectedGraph | DiGraph,
        previous_assignment: Mapping[int, int],
        num_partitions: int,
    ) -> SpinnerResult:
        """Incrementally adapt a partitioning after the graph changed.

        Existing vertices keep their previous label; vertices new to the
        graph are placed on the least loaded partition (Section III-D), and
        label propagation restarts from that state.
        """
        undirected = ensure_undirected(graph, self.config.direction_aware)
        initial = incremental_initial_assignment(
            undirected, previous_assignment, num_partitions
        )
        return self._run(graph, num_partitions, initial)

    def adapt_to_partition_change(
        self,
        graph: UndirectedGraph | DiGraph,
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
        undirected = ensure_undirected(graph, self.config.direction_aware)
        initial = incremental_initial_assignment(undirected, resized, new_num_partitions)
        return self._run(graph, new_num_partitions, initial)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_initial_assignment(
        self,
        graph: DiGraph | UndirectedGraph,
        num_partitions: int,
        initial_assignment: Mapping[int, int] | None,
    ) -> dict[int, int]:
        vertex_ids = list(graph.vertices())
        if initial_assignment is None:
            rng = np.random.default_rng(self.config.seed)
            labels = rng.integers(num_partitions, size=len(vertex_ids))
            return {vertex: int(label) for vertex, label in zip(vertex_ids, labels)}
        missing = [v for v in vertex_ids if v not in initial_assignment]
        if missing:
            raise PartitioningError(
                f"initial assignment misses {len(missing)} vertices (e.g. {missing[:3]})"
            )
        return {v: int(initial_assignment[v]) for v in vertex_ids}

    def _run(
        self,
        graph: DiGraph | UndirectedGraph,
        num_partitions: int,
        initial_assignment: dict[int, int],
    ) -> SpinnerResult:
        assignment, pregel_result = self._execute(graph, num_partitions, initial_assignment)
        # After a crash recovery the engine finished on restored objects;
        # the result's master is the authoritative one, not the instance
        # _execute constructed.
        master = pregel_result.master
        undirected = ensure_undirected(graph, self.config.direction_aware)
        phi = locality(undirected, assignment)
        rho = max_normalized_load(undirected, assignment, num_partitions)
        return SpinnerResult(
            assignment=assignment,
            num_partitions=num_partitions,
            iterations=len(master.history),
            history=master.history,
            phi=phi,
            rho=rho,
            pregel_result=pregel_result,
        )

    def _execute(
        self,
        graph: DiGraph | UndirectedGraph,
        num_partitions: int,
        initial_assignment: dict[int, int],
    ) -> tuple[dict[int, int], VectorPregelResult]:
        """Run the Pregel program; return the assignment and the raw run."""
        convert_directed = isinstance(graph, DiGraph)
        program = BatchSpinnerProgram(
            num_partitions=num_partitions,
            config=self.config,
            convert_directed=convert_directed,
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
        original_ids = spinner_shard.shard.original_ids.tolist()
        initial_labels = np.fromiter(
            (initial_assignment[vertex] for vertex in original_ids),
            dtype=np.int64,
            count=len(original_ids),
        )
        program.bind(spinner_shard, initial_labels)
        pregel_result = engine.run(program, spinner_shard.shard, master=master)
        # Labels come from the result's value array (the batch program
        # returns the label array as its values): after a recovery the
        # local ``program`` is a stale copy of the restored run.
        assignment = dict(
            zip(original_ids, pregel_result.values.astype(np.int64).tolist())
        )
        return assignment, pregel_result
