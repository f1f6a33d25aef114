"""Command-line interface.

``spinner-repro`` exposes the most common operations:

* ``partition`` — partition an edge-list file (or a named dataset proxy)
  with any registered partitioner and write the ``vertex partition``
  assignment to a file;
* ``compare`` — run several partitioners on the same graph and print their
  locality / balance;
* ``experiment`` — run one of the paper's table/figure harnesses and print
  the rows it produces;
* ``recover`` — resume a checkpointed Pregel run from the newest snapshot
  in a checkpoint directory and run it to completion;
* ``ingest`` — stream an undirected edge-list file through the chunked
  external sort into an on-disk CSR store (``--edge-store`` input for
  ``partition``), with peak memory bounded regardless of the file size;
* ``serve`` — run the online sharding service: answer vertex→partition
  lookups over a JSON-lines TCP protocol from a versioned assignment
  store while churn ingestion triggers incremental repartitioning in the
  background (:mod:`repro.serving`).

All user errors (invalid flag combinations, malformed fault plans, bad
checkpoint directories, any :class:`~repro.errors.ReproError`) exit with
status 2 and a one-line ``spinner-repro: error: ...`` message on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.core.config import SpinnerConfig
from repro.errors import ReproError
from repro.graph.conversion import to_weighted_csr
from repro.experiments import (
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table1,
    table3,
    table4,
)
from repro.experiments.common import ExperimentScale
from repro.faults import FaultPlan
from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_names, load_dataset_csr
from repro.graph.io import (
    DEFAULT_RUN_HALF_EDGES,
    ingest_edge_list,
    read_directed_edge_list,
    read_undirected_edge_list,
    write_partitioning_array,
)
from repro.metrics.reporting import format_table
from repro.pregel.checkpoint import load_latest_snapshot, resume_from_checkpoint
from repro.partitioners.base import PartitioningOutput
from repro.partitioners.registry import (
    SPINNER_PARTITIONERS,
    available_partitioners,
    make_partitioner,
)
from repro.serving import ServingConfig, ShardingService

# Partitioners whose stream order is configurable (--stream-order), with
# the orders each one supports.
_STREAMING_PARTITIONERS = {
    "ldg": ("natural", "random", "bfs"),
    "fennel": ("natural", "random"),
}

# FastSpinner-backed partitioners: the only ones whose kernels honour the
# storage tier knobs (--storage / --storage-dir / --storage-chunk).
_FAST_PARTITIONERS = frozenset({"spinner", "spinner-mmap"})


def _fail(message: str) -> None:
    """Print a one-line error and exit with status 2 (user error)."""
    print(f"spinner-repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


_EXPERIMENTS = {
    "table1": table1.run_table1,
    "table3": table3.run_table3,
    "table4": table4.run_table4,
    "fig3": fig3.run_fig3,
    "fig4": fig4.run_fig4,
    "fig5": fig5.run_fig5,
    "fig6a": fig6.run_fig6a,
    "fig6b": fig6.run_fig6b,
    "fig6c": fig6.run_fig6c,
    "fig7": fig7.run_fig7,
    "fig8": fig8.run_fig8,
    "fig9": fig9.run_fig9,
}


def _load_graph(args: argparse.Namespace) -> CSRGraph:
    """The input graph as weighted undirected CSR arrays.

    A dataset proxy loads straight to CSR; an edge list is read as
    directed pairs and converted with the eq. (3) weights.  Either way
    the dense vertex order is ascending original id.
    """
    _check_graph_source(args)
    if args.dataset is not None:
        return load_dataset_csr(args.dataset, scale=args.scale)
    if args.edge_list is not None:
        return to_weighted_csr(read_directed_edge_list(args.edge_list))
    _fail("provide either --dataset or --edge-list")


def _check_graph_source(args: argparse.Namespace) -> None:
    """Reject a command given both graph sources."""
    if args.dataset is not None and args.edge_list is not None:
        _fail("--dataset and --edge-list are mutually exclusive")


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=dataset_names(),
        help="use a built-in dataset proxy instead of an edge list",
    )
    parser.add_argument("--edge-list", help="path to a 'source target' edge-list file")
    parser.add_argument(
        "--scale", type=float, default=0.25, help="dataset proxy size multiplier"
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``spinner-repro`` command."""
    parser = argparse.ArgumentParser(
        prog="spinner-repro",
        description="Spinner (ICDE 2017) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    partition = subparsers.add_parser("partition", help="partition a graph")
    _add_graph_arguments(partition)
    partition.add_argument("-k", "--num-partitions", type=int, required=True)
    partition.add_argument(
        "--partitioner", default="spinner", choices=available_partitioners()
    )
    partition.add_argument("--seed", type=int, default=42)
    partition.add_argument(
        "--stream-order",
        choices=("natural", "random", "bfs"),
        default=None,
        help="vertex stream order for the streaming partitioners "
        "(ldg: natural/random/bfs, fennel: natural/random); "
        "defaults to each partitioner's own default (random)",
    )
    partition.add_argument("--output", help="write 'vertex partition' pairs to this file")
    partition.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="snapshot the Pregel run every N supersteps into "
        "--checkpoint-dir (spinner-pregel only)",
    )
    partition.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for checkpoint snapshots (created if missing); "
        "required with --checkpoint-interval",
    )
    partition.add_argument(
        "--fault-plan",
        default=None,
        help="inject deterministic faults into the Pregel run, e.g. "
        "'crash:2,msg:4:2' (crash:SUPERSTEP[:WORKER[:TIMES]] / "
        "msg:SUPERSTEP[:FAILURES[:TIMES]]); requires checkpointing",
    )
    partition.add_argument(
        "--edge-store",
        default=None,
        help="partition an on-disk CSR store produced by 'ingest' "
        "(out-of-core input; mutually exclusive with --dataset/--edge-list)",
    )
    partition.add_argument(
        "--storage",
        choices=("ram", "mmap"),
        default=None,
        help="storage tier for the FastSpinner kernels ('spinner' / "
        "'spinner-mmap' only): 'mmap' streams the CSR arrays from disk "
        "chunk-wise, bit-exact with 'ram' at O(chunk + labels) peak memory",
    )
    partition.add_argument(
        "--storage-dir",
        default=None,
        help="store/spill directory for --storage mmap (temporary and "
        "removed after the run when unset)",
    )
    partition.add_argument(
        "--storage-chunk",
        type=int,
        default=None,
        help="half-edges per streamed chunk for --storage mmap "
        "(any value >= 1 is bit-exact; smaller bounds memory tighter)",
    )

    compare = subparsers.add_parser("compare", help="compare partitioners on one graph")
    _add_graph_arguments(compare)
    compare.add_argument("-k", "--num-partitions", type=int, required=True)
    compare.add_argument(
        "--partitioners",
        nargs="+",
        default=["hash", "ldg", "fennel", "metis", "spinner"],
        choices=available_partitioners(),
    )

    experiment = subparsers.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=0.25)
    experiment.add_argument("--seed", type=int, default=7)

    ingest = subparsers.add_parser(
        "ingest", help="ingest an edge list into an on-disk CSR store"
    )
    ingest.add_argument(
        "--edge-list",
        required=True,
        help="path to a 'source target [weight]' edge-list file; each line "
        "is one undirected edge (self-loops and duplicates kept)",
    )
    ingest.add_argument(
        "--store", required=True, help="output store directory (created if missing)"
    )
    ingest.add_argument(
        "--num-vertices",
        type=int,
        default=None,
        help="declared vertex-id range [0, N); defaults to max id + 1",
    )
    ingest.add_argument(
        "--run-half-edges",
        type=int,
        default=DEFAULT_RUN_HALF_EDGES,
        help="half-edges per sorted run of the external sort "
        f"(memory ceiling of the ingestion; default {DEFAULT_RUN_HALF_EDGES})",
    )

    recover = subparsers.add_parser(
        "recover", help="resume a checkpointed Pregel run to completion"
    )
    recover.add_argument(
        "checkpoint_dir",
        help="directory holding checkpoint_*.pkl / checkpoint_*.npz snapshots",
    )
    recover.add_argument(
        "--fault-plan",
        default=None,
        help="keep injecting faults into the resumed run (same spec as "
        "partition --fault-plan); by default the resumed run is clean",
    )
    recover.add_argument(
        "--seed", type=int, default=42, help="seed for the fault plan's backoff jitter"
    )

    serve = subparsers.add_parser(
        "serve", help="run the online sharding service (lookup + churn TCP server)"
    )
    _add_graph_arguments(serve)
    serve.add_argument("-k", "--num-partitions", type=int, required=True)
    serve.add_argument(
        "--assignment",
        default=None,
        help="warm-start from a 'vertex partition' file written by a "
        "previous run (partition --output or serve --save-assignment) "
        "instead of computing the initial partitioning",
    )
    serve.add_argument(
        "--save-assignment",
        default=None,
        help="persist the latest assignment to this file on shutdown "
        "(atomic write; re-usable as --assignment)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="listen address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port; 0 (default) binds an ephemeral port, printed "
        "as 'serving on HOST:PORT' once bound",
    )
    serve.add_argument(
        "--edge-threshold",
        type=int,
        default=512,
        help="repartition once this many pending churn edges accumulated "
        "(0 disables the count trigger; default 512)",
    )
    serve.add_argument(
        "--phi-drift",
        type=float,
        default=None,
        help="repartition once the incrementally-estimated locality phi "
        "drops this far below the last published value (disabled by default)",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--storage",
        choices=("ram", "mmap"),
        default=None,
        help="storage tier for background FastSpinner repartitions; "
        "'mmap' streams the CSR arrays from disk",
    )
    serve.add_argument(
        "--storage-dir",
        default=None,
        help="store/spill directory for --storage mmap",
    )
    serve.add_argument(
        "--storage-chunk",
        type=int,
        default=None,
        help="half-edges per streamed chunk for --storage mmap",
    )
    serve.add_argument(
        "--log-interval",
        type=float,
        default=10.0,
        help="seconds between periodic metrics log lines on stderr "
        "(0 disables)",
    )
    serve.add_argument(
        "--latency-sample-every",
        type=int,
        default=16,
        help="record one lookup latency sample in every N requests "
        "(1 samples every request; default 16)",
    )
    serve.add_argument(
        "--max-pipeline",
        type=int,
        default=1024,
        help="most buffered request lines answered as one pipelined "
        "batch with a single coalesced response write "
        "(1 degenerates to one response write per request; default 1024)",
    )

    return parser


def _cmd_partition(args: argparse.Namespace) -> int:
    # Validate flag combinations before the (potentially expensive) graph
    # generation.
    if args.stream_order is not None:
        supported = _STREAMING_PARTITIONERS.get(args.partitioner)
        if supported is None:
            _fail(
                f"--stream-order only applies to {sorted(_STREAMING_PARTITIONERS)}, "
                f"not {args.partitioner!r}"
            )
        if args.stream_order not in supported:
            _fail(
                f"partitioner {args.partitioner!r} supports stream orders "
                f"{supported}, not {args.stream_order!r}"
            )
    if args.fault_plan is not None and args.checkpoint_interval is None:
        _fail("--fault-plan requires --checkpoint-interval and --checkpoint-dir")
    if (args.checkpoint_interval is None) != (args.checkpoint_dir is None):
        _fail("--checkpoint-interval and --checkpoint-dir must be given together")
    if args.edge_store is not None and (
        args.dataset is not None or args.edge_list is not None
    ):
        _fail("--edge-store is mutually exclusive with --dataset/--edge-list")
    storage = args.storage
    if args.partitioner == "spinner-mmap" and storage is None:
        storage = "mmap"
    if storage is not None and args.partitioner not in _FAST_PARTITIONERS:
        _fail(
            f"--storage only applies to the FastSpinner partitioners "
            f"{sorted(_FAST_PARTITIONERS)}, not {args.partitioner!r}"
        )
    if storage != "mmap":
        if args.storage_dir is not None:
            _fail("--storage-dir requires --storage mmap (or --partitioner spinner-mmap)")
        if args.storage_chunk is not None:
            _fail(
                "--storage-chunk requires --storage mmap (or --partitioner spinner-mmap)"
            )
    if args.storage_chunk is not None and args.storage_chunk < 1:
        _fail(f"--storage-chunk must be >= 1, got {args.storage_chunk}")
    fault_plan = None
    if args.checkpoint_interval is not None:
        if args.partitioner != "spinner-pregel":
            _fail(
                "--checkpoint-interval only applies to the Pregel-backed "
                f"partitioner 'spinner-pregel', not {args.partitioner!r}"
            )
        if args.checkpoint_interval < 1:
            _fail(f"--checkpoint-interval must be >= 1, got {args.checkpoint_interval}")
        if os.path.exists(args.checkpoint_dir) and not os.path.isdir(args.checkpoint_dir):
            _fail(
                f"checkpoint dir {args.checkpoint_dir!r} exists and is not a directory"
            )
        if args.fault_plan is not None:
            fault_plan = FaultPlan.parse(args.fault_plan, seed=args.seed)
    if args.partitioner in SPINNER_PARTITIONERS:
        config = SpinnerConfig(
            seed=args.seed,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_dir=args.checkpoint_dir,
            fault_plan=fault_plan,
            storage=storage if storage is not None else "ram",
            storage_dir=args.storage_dir,
            storage_chunk=args.storage_chunk,
        )
        partitioner = make_partitioner(args.partitioner, config=config)
    elif args.partitioner in (*_STREAMING_PARTITIONERS, "random"):
        kwargs = {"seed": args.seed}
        if args.stream_order is not None:
            kwargs["stream_order"] = args.stream_order
        partitioner = make_partitioner(args.partitioner, **kwargs)
    else:
        partitioner = make_partitioner(args.partitioner)
    if args.edge_store is None:
        graph = _load_graph(args)
        return _report_partitioning(args, partitioner.run(graph, args.num_partitions))
    if not os.path.isdir(args.edge_store):
        _fail(f"edge store {args.edge_store!r} does not exist or is not a directory")
    from repro.graph.mmap_store import open_store

    # An opened store is a CSRGraph: the run streams its edge arrays
    # chunk by chunk and never copies them whole.
    with open_store(args.edge_store) as store:
        return _report_partitioning(args, partitioner.run(store, args.num_partitions))


def _report_partitioning(
    args: argparse.Namespace, output: PartitioningOutput
) -> int:
    """Print the quality table and write the assignment from its arrays."""
    print(
        format_table(
            [
                {
                    "partitioner": output.partitioner,
                    "k": output.num_partitions,
                    "phi": output.phi,
                    "rho": output.rho,
                }
            ],
            title="Partitioning quality",
        )
    )
    if args.output:
        write_partitioning_array(output.original_ids, output.labels, args.output)
        print(f"assignment written to {args.output}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    if not os.path.isfile(args.edge_list):
        _fail(f"edge list {args.edge_list!r} does not exist")
    if args.run_half_edges < 1:
        _fail(f"--run-half-edges must be >= 1, got {args.run_half_edges}")
    if args.num_vertices is not None and args.num_vertices < 0:
        _fail(f"--num-vertices must be >= 0, got {args.num_vertices}")
    meta = ingest_edge_list(
        args.edge_list,
        args.store,
        num_vertices=args.num_vertices,
        run_half_edges=args.run_half_edges,
    )
    print(
        format_table(
            [
                {
                    "store": args.store,
                    "vertices": meta["num_vertices"],
                    "edges": meta["num_half_edges"] // 2,
                    "total_weight": meta["total_weight"],
                    "unit_weights": meta["unit_weights"],
                }
            ],
            title="Ingested CSR store",
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    rows = []
    for name in args.partitioners:
        if name in SPINNER_PARTITIONERS:
            partitioner = make_partitioner(name, config=SpinnerConfig())
        else:
            partitioner = make_partitioner(name)
        output = partitioner.run(graph, args.num_partitions)
        rows.append(
            {"partitioner": name, "phi": output.phi, "rho": output.rho}
        )
    print(format_table(rows, title=f"k={args.num_partitions}"))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = ExperimentScale(graph_scale=args.scale, seed=args.seed)
    rows = _EXPERIMENTS[args.name](scale=scale)
    print(format_table(rows, title=f"Experiment {args.name}"))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.checkpoint_dir):
        _fail(
            f"checkpoint dir {args.checkpoint_dir!r} does not exist "
            "or is not a directory"
        )
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = FaultPlan.parse(args.fault_plan, seed=args.seed)
    snapshot = load_latest_snapshot(args.checkpoint_dir)
    result = resume_from_checkpoint(
        args.checkpoint_dir, fault_plan=fault_plan, snapshot=snapshot
    )
    print(
        format_table(
            [
                {
                    "engine": snapshot.kind,
                    "resumed_from": snapshot.superstep,
                    "supersteps": result.num_supersteps,
                    "halt_reason": result.halt_reason,
                    "checkpoints": result.stats.checkpoints_written,
                    "recoveries": result.stats.recoveries,
                }
            ],
            title=f"Recovered run from {args.checkpoint_dir}",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    if args.num_partitions < 1:
        _fail(f"--num-partitions must be >= 1, got {args.num_partitions}")
    if args.edge_threshold < 0:
        _fail(f"--edge-threshold must be >= 0, got {args.edge_threshold}")
    edge_threshold = args.edge_threshold if args.edge_threshold > 0 else None
    if edge_threshold is None and args.phi_drift is None:
        _fail(
            "both repartition triggers are disabled; give --edge-threshold > 0 "
            "and/or --phi-drift"
        )
    if args.phi_drift is not None and not 0.0 < args.phi_drift <= 1.0:
        _fail(f"--phi-drift must lie in (0, 1], got {args.phi_drift}")
    if args.storage != "mmap":
        if args.storage_dir is not None:
            _fail("--storage-dir requires --storage mmap")
        if args.storage_chunk is not None:
            _fail("--storage-chunk requires --storage mmap")
    if args.storage_chunk is not None and args.storage_chunk < 1:
        _fail(f"--storage-chunk must be >= 1, got {args.storage_chunk}")
    if not 0 <= args.port <= 65535:
        _fail(f"--port must lie in [0, 65535], got {args.port}")
    if args.log_interval < 0:
        _fail(f"--log-interval must be >= 0, got {args.log_interval}")
    if args.latency_sample_every < 1:
        _fail(
            f"--latency-sample-every must be >= 1, got {args.latency_sample_every}"
        )
    if args.max_pipeline < 1:
        _fail(f"--max-pipeline must be >= 1, got {args.max_pipeline}")
    if args.assignment is not None and not os.path.isfile(args.assignment):
        _fail(f"assignment file {args.assignment!r} does not exist")
    _check_graph_source(args)

    if args.dataset is not None:
        graph = load_dataset_csr(args.dataset, scale=args.scale)
    elif args.edge_list is not None:
        if not os.path.isfile(args.edge_list):
            _fail(f"edge list {args.edge_list!r} does not exist")
        graph = CSRGraph.from_undirected(read_undirected_edge_list(args.edge_list))
    else:
        _fail("provide either --dataset or --edge-list")

    config = ServingConfig(
        num_partitions=args.num_partitions,
        edge_threshold=edge_threshold,
        phi_drift=args.phi_drift,
        spinner=SpinnerConfig(
            seed=args.seed,
            storage=args.storage if args.storage is not None else "ram",
            storage_dir=args.storage_dir,
            storage_chunk=args.storage_chunk,
        ),
        log_interval=args.log_interval,
        latency_sample_every=args.latency_sample_every,
        max_pipeline_batch=args.max_pipeline,
    )
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
    )
    service = ShardingService(
        graph,
        config,
        warm_start=args.assignment,
        host=args.host,
        port=args.port,
    )
    if service.last_report is not None:
        print(
            format_table([service.last_report.as_row()], title="Initial partitioning")
        )
    else:
        print(
            f"warm-started from {args.assignment} "
            f"at version {service.store.version}"
        )

    def _announce(started: ShardingService) -> None:
        print(f"serving on {started.host}:{started.port}", flush=True)

    try:
        asyncio.run(service.serve_forever(ready=_announce))
    except KeyboardInterrupt:
        pass
    if args.save_assignment is not None:
        service.store.save(args.save_assignment)
        print(f"assignment written to {args.save_assignment}")
    print(f"stopped at version {service.store.version}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``spinner-repro`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "partition":
            return _cmd_partition(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "recover":
            return _cmd_recover(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as exc:
        # Library errors (bad fault specs, unreadable checkpoints, invalid
        # configurations) are user errors at the CLI surface: one line, exit 2.
        _fail(str(exc))
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
