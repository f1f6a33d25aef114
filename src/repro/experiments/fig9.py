"""Figure 9 — impact of the partitioning on application performance.

The paper runs three applications (Shortest Paths/BFS, PageRank, Weakly
Connected Components) on LiveJournal (16 partitions), Tuenti (32) and
Twitter (64), once with hash partitioning and once with the Spinner
partitioning driving vertex placement, and reports the percentage runtime
improvement (25-50%, i.e. up to a factor of 2).

Here the runtime is the simulated cluster time of the Pregel run — the
slowest worker's cost per superstep, summed over supersteps — which
captures both effects the paper describes: fewer remote messages (better
locality) and less idling at the synchronization barrier (better balance).
"""

from __future__ import annotations

from repro.apps import make_app_program
from repro.core.fast import FastSpinner
from repro.experiments.common import ExperimentScale, spinner_config, undirected_dataset
from repro.experiments.giraph import run_application
from repro.metrics.reporting import improvement_percentage

#: (dataset, number of partitions/workers) pairs of Figure 9, scaled down.
FIG9_WORKLOADS = (("LJ", 8), ("TU", 8), ("TW", 16))
FIG9_APPLICATIONS = ("SP", "PR", "CC")


def _make_program(app: str, source: int, engine: str = "dict"):
    if app == "SP":
        return make_app_program("sssp", engine, source=source)
    if app == "PR":
        return make_app_program("pagerank", engine, num_iterations=10)
    if app == "CC":
        return make_app_program("wcc", engine)
    raise ValueError(f"unknown application {app!r}")


def run_fig9(
    workloads: tuple[tuple[str, int], ...] = FIG9_WORKLOADS,
    applications: tuple[str, ...] = FIG9_APPLICATIONS,
    scale: ExperimentScale | None = None,
    engine: str = "dict",
) -> list[dict]:
    """Return one row per (application, dataset) with the runtime improvement.

    ``engine`` selects the Pregel runtime (``"dict"`` or ``"vector"``).
    """
    scale = scale or ExperimentScale.default()
    rows: list[dict] = []
    for dataset, num_partitions in workloads:
        graph = undirected_dataset(dataset, scale)
        spinner = FastSpinner(spinner_config(scale.seed))
        assignment = spinner.partition(
            graph, num_partitions, track_history=False
        ).to_assignment()
        source = next(iter(graph.vertices()))
        for app in applications:
            hash_run = run_application(
                _make_program(app, source, engine),
                graph,
                num_workers=num_partitions,
                engine=engine,
            )
            spinner_run = run_application(
                _make_program(app, source, engine),
                graph,
                num_workers=num_partitions,
                assignment=assignment,
                engine=engine,
            )
            rows.append(
                {
                    "application": app,
                    "graph": dataset,
                    "k": num_partitions,
                    "time_hash": round(hash_run.simulated_time, 1),
                    "time_spinner": round(spinner_run.simulated_time, 1),
                    "improvement_pct": round(
                        improvement_percentage(
                            hash_run.simulated_time, spinner_run.simulated_time
                        ),
                        1,
                    ),
                    "remote_msgs_hash": hash_run.remote_messages,
                    "remote_msgs_spinner": spinner_run.remote_messages,
                }
            )
    return rows
