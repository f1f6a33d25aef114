"""Running analytical applications on the simulated Giraph cluster.

The application-performance experiments (Table IV and Figure 9) compare
two vertex-to-worker placements for the same application and graph:

* **hash placement** — Giraph's default, vertex ``v`` lands on worker
  ``hash(v) mod W``;
* **Spinner placement** — vertices sharing a Spinner label land on the
  same worker, exactly the integration described in Section V-F of the
  paper (a vertex id type carrying the computed partition plus a hash
  function that only looks at the partition field).

This module provides that plumbing and returns the per-superstep worker
statistics the experiments summarize.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.faults import FaultPlan
from repro.graph.csr import CSRGraph
from repro.pregel.batch import BatchVertexProgram
from repro.pregel.cost_model import ClusterCostModel, RunStats
from repro.pregel.vector_coordinator import VectorPregelEngine, VectorPregelResult
from repro.pregel.worker import hash_placement, partition_placement


@dataclass
class ApplicationRun:
    """Result of one application run under one placement."""

    placement: str
    result: VectorPregelResult
    cost_model: ClusterCostModel

    @property
    def stats(self) -> RunStats:
        """Per-superstep statistics of the run."""
        return self.result.stats

    @property
    def simulated_time(self) -> float:
        """Total simulated runtime."""
        return self.stats.simulated_time(self.cost_model)

    @property
    def remote_messages(self) -> int:
        """Messages that crossed worker boundaries (network traffic)."""
        return self.stats.remote_messages

    def superstep_times(self) -> list[dict]:
        """Mean/max/min simulated worker time per superstep (Table IV rows)."""
        rows = []
        for stats in self.stats.superstep_stats:
            rows.append(
                {
                    "superstep": stats.superstep,
                    "mean": stats.mean_worker_time(self.cost_model),
                    "max": stats.simulated_time(self.cost_model),
                    "min": stats.min_worker_time(self.cost_model),
                }
            )
        return rows


def run_application(
    program: BatchVertexProgram,
    graph: CSRGraph,
    num_workers: int,
    assignment: Mapping[int, int] | None = None,
    cost_model: ClusterCostModel | None = None,
    max_supersteps: int = 200,
    checkpoint_interval: int | None = None,
    checkpoint_dir: str | None = None,
    fault_plan: FaultPlan | None = None,
) -> ApplicationRun:
    """Run ``program`` on ``graph`` with hash or Spinner-driven placement.

    ``assignment`` is a Spinner partitioning; when omitted the default hash
    placement is used.  The checkpoint/fault knobs are forwarded to the
    :class:`~repro.pregel.vector_coordinator.VectorPregelEngine` unchanged.
    """
    cost_model = cost_model or ClusterCostModel()
    if assignment is None:
        placement = hash_placement(num_workers)
        placement_name = "hash"
    else:
        placement = partition_placement(dict(assignment), num_workers)
        placement_name = "spinner"
    engine = VectorPregelEngine(
        num_workers=num_workers,
        placement=placement,
        cost_model=cost_model,
        max_supersteps=max_supersteps,
        checkpoint_interval=checkpoint_interval,
        checkpoint_dir=checkpoint_dir,
        fault_plan=fault_plan,
    )
    result = engine.run_on_csr(program, graph)
    return ApplicationRun(placement=placement_name, result=result, cost_model=cost_model)
