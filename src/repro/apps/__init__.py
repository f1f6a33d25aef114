"""Analytical applications used in the paper's evaluation (Section V-F).

The paper measures how a Spinner partitioning speeds up three
representative Giraph applications relative to hash partitioning:

* Single-Source Shortest Paths / BFS (:mod:`repro.apps.sssp`),
* PageRank (:mod:`repro.apps.pagerank`), and
* Weakly Connected Components (:mod:`repro.apps.wcc`).

Each application ships in two equivalent implementations: a per-vertex
:class:`~repro.pregel.program.VertexProgram` for the dictionary engine and
an array-native :class:`~repro.pregel.batch.BatchVertexProgram`
for the sharded vector engine.  :func:`make_app_program` builds either
variant by name, which is how the experiment harnesses and the CLI select
a runtime with ``--engine dict|vector``.
"""

from repro.apps.degree import BatchDegreeCount, DegreeCount
from repro.apps.pagerank import BatchPageRank, PageRank
from repro.apps.sssp import BatchShortestPaths, ShortestPaths
from repro.apps.wcc import BatchWeaklyConnectedComponents, WeaklyConnectedComponents

#: app name -> (dict-engine program, vector-engine program)
APP_PROGRAMS = {
    "degree": (DegreeCount, BatchDegreeCount),
    "pagerank": (PageRank, BatchPageRank),
    "sssp": (ShortestPaths, BatchShortestPaths),
    "wcc": (WeaklyConnectedComponents, BatchWeaklyConnectedComponents),
}


def make_app_program(app: str, engine: str = "dict", **kwargs):
    """Instantiate the named application for the chosen engine.

    ``engine`` is ``"dict"`` (per-vertex programs on
    :class:`~repro.pregel.engine.PregelEngine`) or ``"vector"`` (batch
    programs on :class:`~repro.pregel.vector_coordinator.VectorPregelEngine`);
    ``kwargs`` are forwarded to the program constructor.
    """
    try:
        dict_cls, batch_cls = APP_PROGRAMS[app]
    except KeyError:
        raise ValueError(f"unknown application {app!r}") from None
    if engine == "dict":
        return dict_cls(**kwargs)
    if engine == "vector":
        return batch_cls(**kwargs)
    raise ValueError(f"unknown engine {engine!r} (expected 'dict' or 'vector')")


__all__ = [
    "APP_PROGRAMS",
    "BatchDegreeCount",
    "BatchPageRank",
    "BatchShortestPaths",
    "BatchWeaklyConnectedComponents",
    "DegreeCount",
    "PageRank",
    "ShortestPaths",
    "WeaklyConnectedComponents",
    "make_app_program",
]
