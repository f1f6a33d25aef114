"""Simulated Pregel/Giraph execution substrate.

The paper implements Spinner on Apache Giraph, an open-source Pregel
implementation running on Hadoop clusters.  This subpackage provides a
faithful single-process simulation of that model:

* **vertex-centric programs** (:class:`repro.pregel.program.VertexProgram`)
  executed superstep by superstep with synchronous message delivery;
* **aggregators** (:mod:`repro.pregel.aggregators`) with the commutative /
  associative semantics of Pregel (values aggregated in superstep *S* are
  visible in superstep *S + 1*), mirroring Giraph's sharded aggregators;
* **workers** (:mod:`repro.pregel.worker`) with per-worker shared state,
  which Spinner uses for its asynchronous per-worker load counters
  (paper Section IV-A4);
* a **master compute** hook executed between supersteps;
* a **cost model** (:mod:`repro.pregel.cost_model`) that charges local and
  remote messages differently and derives a simulated superstep time as the
  maximum over workers — the quantity behind Table IV and Figure 9.

Two runtimes execute this model, both in one process: the dictionary
engine (:class:`~repro.pregel.engine.PregelEngine`, one Python
``compute`` call per vertex per superstep) and the array-native sharded
vector engine (:class:`~repro.pregel.vector_coordinator.VectorPregelEngine`,
one batch compute per superstep over NumPy arrays, with the program
interface in :mod:`repro.pregel.batch`) — same semantics, same
statistics, different program interface and orders of magnitude apart in
throughput.  The simulated workers are the unit of parallelism: the
cost model charges each superstep at its slowest worker, as a Giraph
cluster would.

Both runtimes share the fault-tolerance subsystem
(:mod:`repro.pregel.checkpoint` + :mod:`repro.faults`): superstep-boundary
checkpointing, deterministic fault injection and crash recovery with a
bit-exactness contract — a faulted-and-recovered run matches the
uninterrupted one byte for byte.
"""

from repro.pregel.aggregators import (
    AggregatorRegistry,
    DoubleSumAggregator,
    LongSumAggregator,
    MaxAggregator,
    MinAggregator,
)
from repro.pregel.batch import (
    BatchComputeContext,
    BatchStep,
    BatchVertexProgram,
    DeliveredMessages,
    Outbox,
    ShardedGraph,
)
from repro.pregel.checkpoint import (
    CheckpointManager,
    Snapshot,
    load_latest_snapshot,
    load_snapshot,
    resume_from_checkpoint,
)
from repro.pregel.cost_model import ClusterCostModel, SuperstepStats
from repro.pregel.engine import PregelEngine, PregelResult
from repro.pregel.master import MasterCompute
from repro.pregel.program import ComputeContext, VertexProgram
from repro.pregel.vector_coordinator import VectorPregelEngine, VectorPregelResult
from repro.pregel.vertex import Vertex

__all__ = [
    "AggregatorRegistry",
    "BatchComputeContext",
    "BatchStep",
    "BatchVertexProgram",
    "CheckpointManager",
    "ClusterCostModel",
    "ComputeContext",
    "DeliveredMessages",
    "DoubleSumAggregator",
    "LongSumAggregator",
    "MasterCompute",
    "MaxAggregator",
    "MinAggregator",
    "Outbox",
    "PregelEngine",
    "PregelResult",
    "ShardedGraph",
    "Snapshot",
    "SuperstepStats",
    "VectorPregelEngine",
    "VectorPregelResult",
    "Vertex",
    "VertexProgram",
    "load_latest_snapshot",
    "load_snapshot",
    "resume_from_checkpoint",
]
