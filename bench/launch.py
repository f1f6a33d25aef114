"""Run one ``repro`` CLI command in this process, timed and optionally traced.

    python3 bench/launch.py --result FILE [--trace] -- partition --dataset LJ ...

The benchmark starts every command of a workload through this launcher,
with ``src`` on ``PYTHONPATH``.  It imports :mod:`repro.cli`, calls
``main(argv)`` and, when the command ends, writes FILE as JSON:

* ``main_entered`` — ``time.perf_counter()`` when ``main`` was called (the
  monotonic clock is shared by the processes of one host, so the parent
  subtracts its own spawn time to get the set-up time);
* ``import_s`` — time to import :mod:`repro.cli`;
* ``maxrss_mb`` — peak resident set size of this process;
* ``exit_code``;
* with ``--trace``, ``trace`` — the span summary of :data:`TARGETS` — and
  ``probes`` — garbage-collection pauses and event-loop lag.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time

import spans

#: Half-edge count of the CSR graph last built on this thread, so the
#: FastSpinner hook can size a run whose input was converted inside it.
_built = threading.local()


def _note_csr(counters, args, kwargs, result) -> None:
    _built.half_edges = int(result.indices.shape[0])


def _fast_partition(counters, args, kwargs, result) -> None:
    graph = args[1]
    indices = getattr(graph, "indices", None)
    half_edges = int(indices.shape[0]) if indices is not None else getattr(_built, "half_edges", 0)
    counters["core.fast.runs"] = counters.get("core.fast.runs", 0) + 1
    counters["core.fast.iterations"] = counters.get("core.fast.iterations", 0) + result.iterations
    counters["core.fast.half_edge_visits"] = (
        counters.get("core.fast.half_edge_visits", 0) + result.iterations * half_edges
    )
    if result.history:
        counters["core.fast.migrations"] = counters.get("core.fast.migrations", 0) + sum(
            record.migrations for record in result.history
        )
        counters["core.fast.vertex_visits"] = (
            counters.get("core.fast.vertex_visits", 0)
            + len(result.history) * int(result.labels.shape[0])
        )


def _churn_ingest(counters, args, kwargs, result) -> None:
    delta = args[1]
    counters["serving.churn.edges_submitted"] = (
        counters.get("serving.churn.edges_submitted", 0) + len(delta.added_edges)
    )
    counters["serving.churn.edges_added"] = (
        counters.get("serving.churn.edges_added", 0) + int(result)
    )


def _lookup_many(counters, args, kwargs, result) -> None:
    counters["serving.store.lookup_many_vertices"] = (
        counters.get("serving.store.lookup_many_vertices", 0) + len(args[1])
    )


def _targets() -> list:
    target = spans.Target
    return [
        target("repro.graph.datasets", "load_dataset"),
        target("repro.graph.conversion", "to_weighted_csr", hook=_note_csr),
        target("repro.graph.conversion", "ensure_undirected"),
        target("repro.graph.csr", "CSRGraph.from_undirected", hook=_note_csr),
        target("repro.graph.undirected", "UndirectedGraph.copy"),
        target("repro.graph.io", "ingest_edge_list"),
        target("repro.graph.io", "write_partitioning"),
        target("repro.graph.io", "write_partitioning_array"),
        target("repro.graph.mmap_store", "open_store"),
        target("repro.core.fast", "FastSpinner.partition", hook=_fast_partition),
        target("repro.core.fast", "FastSpinner.adapt_to_graph_changes"),
        target("repro.core.fast", "FastSpinnerResult.to_assignment"),
        target("repro.core.incremental", "incremental_initial_labels"),
        target("repro.metrics.quality", "locality"),
        target("repro.metrics.quality", "max_normalized_load"),
        target("repro.serving.churn", "ChurnPipeline.bootstrap"),
        target("repro.serving.churn", "ChurnPipeline.freeze"),
        target("repro.serving.churn", "ChurnPipeline.execute", durations=True),
        target("repro.serving.churn", "ChurnPipeline.publish"),
        target("repro.serving.churn", "ChurnPipeline.ingest", durations=True, hook=_churn_ingest),
        target("repro.serving.store", "AssignmentSnapshot.lookup"),
        target("repro.serving.store", "AssignmentSnapshot.lookup_many", hook=_lookup_many),
        target("repro.serving.store", "AssignmentSnapshot.to_assignment"),
        target("repro.serving.store", "AssignmentStore.publish"),
        target("repro.serving.service", "ShardingService.lookup"),
        target("repro.serving.service", "ShardingService.lookup_many"),
    ]


def _split_argv(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    if "--" not in argv:
        raise SystemExit("usage: launch.py --result FILE [--trace] -- <repro cli args>")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv[:split]), argv[split + 1 :]


def main() -> int:
    options, cli_argv = _split_argv(sys.argv[1:])
    start = time.perf_counter()
    import repro.cli

    report: dict = {"import_s": time.perf_counter() - start}
    recorder = probes = None
    if options.trace:
        from repro.serving.service import ShardingService

        recorder = spans.Recorder()
        spans.install(recorder, _targets(), package="repro")
        probes = spans.RuntimeProbes()
        probes.wrap_loop_start(ShardingService, "start")
        probes.start_gc()
    report["main_entered"] = time.perf_counter()
    code = 1
    try:
        code = repro.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        report["exit_code"] = code
        report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if probes is not None:
            probes.stop_gc()
            report["trace"] = recorder.summary()
            report["probes"] = probes.summary()
        sys.stdout.flush()
        with open(options.result, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
