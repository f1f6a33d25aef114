"""Analytical applications used in the paper's evaluation (Section V-F).

The paper measures how a Spinner partitioning speeds up three
representative Giraph applications relative to hash partitioning:

* Single-Source Shortest Paths / BFS (:mod:`repro.apps.sssp`),
* PageRank (:mod:`repro.apps.pagerank`), and
* Weakly Connected Components (:mod:`repro.apps.wcc`).

Each application is a :class:`~repro.pregel.batch.BatchVertexProgram` for
the vector Pregel engine; :func:`make_app_program` builds one by name,
which is how the experiment harnesses select an application.
"""

from repro.apps.degree import BatchDegreeCount
from repro.apps.pagerank import BatchPageRank
from repro.apps.sssp import BatchShortestPaths
from repro.apps.wcc import BatchWeaklyConnectedComponents

#: app name -> batch program class
APP_PROGRAMS = {
    "degree": BatchDegreeCount,
    "pagerank": BatchPageRank,
    "sssp": BatchShortestPaths,
    "wcc": BatchWeaklyConnectedComponents,
}


def make_app_program(app: str, **kwargs):
    """Instantiate the named application; ``kwargs`` go to its constructor."""
    try:
        program_cls = APP_PROGRAMS[app]
    except KeyError:
        raise ValueError(f"unknown application {app!r}") from None
    return program_cls(**kwargs)


__all__ = [
    "APP_PROGRAMS",
    "BatchDegreeCount",
    "BatchPageRank",
    "BatchShortestPaths",
    "BatchWeaklyConnectedComponents",
    "make_app_program",
]
