"""Online graph-sharding service (the paper's Section I serving scenario).

Turns the batch reproduction into the system Spinner was built for: a
long-running service that answers vertex→partition lookups at high QPS
from a versioned, atomically-swapped assignment store
(:mod:`repro.serving.store`), consumes a live edge stream and triggers
incremental repartitioning in the background when churn crosses a
threshold (:mod:`repro.serving.churn`), and exposes
lookup/latency/quality/migration metrics (:mod:`repro.serving.metrics`)
through an asyncio JSON-lines front end (:mod:`repro.serving.service`),
wired to the CLI as ``spinner-repro serve``.
"""

from repro.serving.churn import (
    ChurnPipeline,
    RepartitionReport,
    ServingConfig,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.service import ShardingService, send_requests
from repro.serving.store import AssignmentSnapshot, AssignmentStore

__all__ = [
    "AssignmentSnapshot",
    "AssignmentStore",
    "ChurnPipeline",
    "RepartitionReport",
    "ServingConfig",
    "ServingMetrics",
    "ShardingService",
    "send_requests",
]
