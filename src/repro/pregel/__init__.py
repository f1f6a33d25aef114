"""Simulated Pregel/Giraph execution substrate.

The paper implements Spinner on Apache Giraph, an open-source Pregel
implementation running on Hadoop clusters.  This subpackage provides a
faithful single-process simulation of that model, executed by one
runtime: the array-native sharded vector engine
(:class:`~repro.pregel.vector_coordinator.VectorPregelEngine`), which runs
one batch compute per superstep over NumPy arrays:

* **batch vertex programs** (:class:`repro.pregel.batch.BatchVertexProgram`)
  executed superstep by superstep with synchronous message delivery;
* **aggregators** (:mod:`repro.pregel.aggregators`) with the commutative /
  associative semantics of Pregel (values aggregated in superstep *S* are
  visible in superstep *S + 1*), mirroring Giraph's sharded aggregators;
* **vertex placement** onto simulated workers as one array rule,
  ``worker = (placement label, else vertex id) mod workers``: hash
  placement by default, and with a partitioning's dense label array the
  paper's Section V-F placement, where vertices sharing a label share a
  worker; per-worker shared stores hold Spinner's asynchronous load
  counters (paper Section IV-A4);
* a **master compute** hook executed between supersteps;
* a **cost model** (:mod:`repro.pregel.cost_model`) that charges local and
  remote messages differently and derives a simulated superstep time as the
  maximum over workers — the quantity behind Table IV and Figure 9.

The simulated workers are the unit of parallelism: the cost model charges
each superstep at its slowest worker, as a Giraph cluster would.  The
engine is pinned bit-exact against a per-vertex reference engine (one
Python ``compute`` call per vertex per superstep) that lives in the test
suite as an oracle.

The fault-tolerance subsystem (:mod:`repro.pregel.checkpoint` +
:mod:`repro.faults`) adds superstep-boundary checkpointing, deterministic
fault injection and crash recovery with a bit-exactness contract — a
faulted-and-recovered run matches the uninterrupted one byte for byte.
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
from repro.pregel.master import MasterCompute
from repro.pregel.vector_coordinator import VectorPregelEngine, VectorPregelResult

__all__ = [
    "AggregatorRegistry",
    "BatchComputeContext",
    "BatchStep",
    "BatchVertexProgram",
    "CheckpointManager",
    "ClusterCostModel",
    "DeliveredMessages",
    "DoubleSumAggregator",
    "LongSumAggregator",
    "MasterCompute",
    "MaxAggregator",
    "MinAggregator",
    "Outbox",
    "ShardedGraph",
    "Snapshot",
    "SuperstepStats",
    "VectorPregelEngine",
    "VectorPregelResult",
    "load_latest_snapshot",
    "load_snapshot",
    "resume_from_checkpoint",
]
