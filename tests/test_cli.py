"""Tests for the command-line interface."""

import pickle

import numpy as np
import pytest

from oracles.baselines import DICT_PARTITIONS, dict_run

import repro.cli as cli_module
import repro.partitioners.csr_stream as csr_stream_module
from repro.cli import build_parser, main
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinnerResult
from repro.graph.conversion import ensure_undirected
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.graph.io import (
    read_directed_edge_list,
    read_partitioning,
    write_directed_edge_list,
    write_partitioning,
    write_partitioning_array,
)
from repro.graph.mmap_store import open_store
from repro.metrics.quality import locality, max_normalized_load
from repro.metrics.reporting import format_table
from repro.partitioners.registry import (
    SPINNER_PARTITIONERS,
    available_partitioners,
    make_partitioner,
)


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["partition", "--dataset", "TU", "-k", "4"])
    assert args.command == "partition"
    args = parser.parse_args(["experiment", "table3"])
    assert args.command == "experiment"


def test_partition_command_writes_assignment(tmp_path, capsys):
    graph = DiGraph.from_edges([(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 2) % 20) for i in range(20)])
    edge_file = tmp_path / "graph.edges"
    write_directed_edge_list(graph, edge_file)
    output_file = tmp_path / "parts.txt"
    code = main(
        [
            "partition",
            "--edge-list",
            str(edge_file),
            "-k",
            "2",
            "--partitioner",
            "spinner",
            "--output",
            str(output_file),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "phi" in captured
    assignment = read_partitioning(output_file)
    assert set(assignment) == set(graph.vertices())


def test_compare_command_on_dataset(capsys):
    code = main(
        [
            "compare",
            "--dataset",
            "TU",
            "--scale",
            "0.03",
            "-k",
            "4",
            "--partitioners",
            "hash",
            "ldg",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hash" in out and "ldg" in out


def test_experiment_command(capsys):
    code = main(["experiment", "table3", "--scale", "0.03"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rho" in out


def test_partition_command_stream_order(capsys):
    code = main(
        [
            "partition",
            "--dataset",
            "TU",
            "--scale",
            "0.03",
            "-k",
            "4",
            "--partitioner",
            "ldg",
            "--stream-order",
            "bfs",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    assert "ldg" in capsys.readouterr().out


def test_partition_stream_order_rejected_for_non_streaming():
    with pytest.raises(SystemExit):
        main(
            [
                "partition",
                "--dataset",
                "TU",
                "--scale",
                "0.03",
                "-k",
                "2",
                "--partitioner",
                "hash",
                "--stream-order",
                "bfs",
            ]
        )


def test_partition_stream_order_rejected_when_unsupported():
    # fennel has no BFS stream; the CLI must exit cleanly, not traceback.
    with pytest.raises(SystemExit):
        main(
            [
                "partition",
                "--dataset",
                "TU",
                "--scale",
                "0.03",
                "-k",
                "2",
                "--partitioner",
                "fennel",
                "--stream-order",
                "bfs",
            ]
        )


def test_missing_graph_source_errors():
    with pytest.raises(SystemExit):
        main(["partition", "-k", "2"])


_SCALED_COMMANDS = {
    "partition": ["partition", "--dataset", "TU", "-k", "2"],
    "compare": ["compare", "--dataset", "TU", "-k", "2", "--partitioners", "hash"],
    "serve": ["serve", "--dataset", "TU", "-k", "2"],
    "experiment": ["experiment", "table3"],
}


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", sorted(_SCALED_COMMANDS))
def test_scale_must_be_finite_and_positive(capsys, command, scale):
    with pytest.raises(SystemExit) as excinfo:
        main(_SCALED_COMMANDS[command] + ["--scale", scale])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("spinner-repro: error:") and "scale" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["partition", "compare", "serve"])
def test_dataset_and_edge_list_are_mutually_exclusive(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.edges")
    with pytest.raises(SystemExit) as excinfo:
        main(_SCALED_COMMANDS[command] + ["--edge-list", missing])
    assert excinfo.value.code == 2
    assert "--dataset and --edge-list are mutually exclusive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# checkpoint / recovery flags
# ----------------------------------------------------------------------
def _edge_file(tmp_path):
    graph = DiGraph.from_edges(
        [(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 3) % 20) for i in range(20)]
    )
    edge_file = tmp_path / "graph.edges"
    write_directed_edge_list(graph, edge_file)
    return edge_file


def test_partition_with_checkpointing_and_recover(tmp_path, capsys):
    edge_file = _edge_file(tmp_path)
    ckpt_dir = tmp_path / "ckpt"
    code = main(
        [
            "partition",
            "--edge-list",
            str(edge_file),
            "-k",
            "2",
            "--partitioner",
            "spinner-pregel",
            "--checkpoint-interval",
            "2",
            "--checkpoint-dir",
            str(ckpt_dir),
            "--fault-plan",
            "crash:2",
        ]
    )
    assert code == 0
    assert list(ckpt_dir.glob("checkpoint_*.npz"))
    capsys.readouterr()

    code = main(["recover", str(ckpt_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "vector" in out
    assert "halt_reason" in out


def _exits_with_code_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_fault_plan_requires_checkpointing(tmp_path):
    edge_file = _edge_file(tmp_path)
    _exits_with_code_2(
        [
            "partition",
            "--edge-list",
            str(edge_file),
            "-k",
            "2",
            "--partitioner",
            "spinner-pregel",
            "--fault-plan",
            "crash:1",
        ]
    )


def test_checkpoint_flags_must_come_in_pairs(tmp_path):
    edge_file = _edge_file(tmp_path)
    base = ["partition", "--edge-list", str(edge_file), "-k", "2",
            "--partitioner", "spinner-pregel"]
    _exits_with_code_2(base + ["--checkpoint-interval", "2"])
    _exits_with_code_2(base + ["--checkpoint-dir", str(tmp_path / "ck")])


def test_checkpointing_rejected_for_non_pregel_partitioner(tmp_path):
    edge_file = _edge_file(tmp_path)
    _exits_with_code_2(
        [
            "partition",
            "--edge-list",
            str(edge_file),
            "-k",
            "2",
            "--partitioner",
            "spinner",
            "--checkpoint-interval",
            "2",
            "--checkpoint-dir",
            str(tmp_path / "ck"),
        ]
    )


def test_malformed_fault_plan_exits_2(tmp_path):
    edge_file = _edge_file(tmp_path)
    _exits_with_code_2(
        [
            "partition",
            "--edge-list",
            str(edge_file),
            "-k",
            "2",
            "--partitioner",
            "spinner-pregel",
            "--checkpoint-interval",
            "2",
            "--checkpoint-dir",
            str(tmp_path / "ck"),
            "--fault-plan",
            "kaboom:3",
        ]
    )


def test_recover_rejects_missing_directory(tmp_path):
    _exits_with_code_2(["recover", str(tmp_path / "nope")])


def test_recover_rejects_empty_directory(tmp_path):
    _exits_with_code_2(["recover", str(tmp_path)])


def test_recover_rejects_stale_dict_engine_snapshot(tmp_path, capsys):
    # Dict-engine checkpoints (one pickle per snapshot) can no longer be
    # resumed: a directory holding only one is a user error, not a crash.
    payload = {
        "format": "spinner-repro-checkpoint",
        "version": 1,
        "kind": "dict",
        "superstep": 2,
        "interval": 2,
        "engine": {
            "num_workers": 4,
            "cost_model": None,
            "combiner": None,
            "max_supersteps": 50,
            "drop_unknown_targets": False,
        },
        "state": None,
    }
    (tmp_path / "checkpoint_00000002.pkl").write_bytes(pickle.dumps(payload))
    _exits_with_code_2(["recover", str(tmp_path)])
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("spinner-repro: error: no valid checkpoint snapshot")


# ----------------------------------------------------------------------
# every input runs on CSR arrays: pinned against the dictionary oracles
# ----------------------------------------------------------------------
# Partitioners with a dictionary oracle (the streaming and trivial
# baselines) are checked against it.  The others have none: Spinner,
# METIS and the Pregel Spinner are checked against the library run on a
# CSR graph built from the dictionary graph.
ARRAY_NATIVE_PARTITIONERS = sorted(
    set(available_partitioners()) - {"metis", "spinner-pregel"}
)
ORACLE_SCALE = 0.05
ORACLE_SEED = 11


def _oracle_partitioner(name, seed):
    """The partitioner the CLI builds for ``partition --partitioner name``."""
    if name in SPINNER_PARTITIONERS:
        storage = "mmap" if name == "spinner-mmap" else "ram"
        return make_partitioner(name, config=SpinnerConfig(seed=seed, storage=storage))
    if name in ("ldg", "fennel", "random"):
        return make_partitioner(name, seed=seed)
    return make_partitioner(name)


def _reference(partitioner, graph, k):
    """Reference assignment plus (phi, rho) on the dictionary graph."""
    undirected = ensure_undirected(graph)
    if partitioner.name in DICT_PARTITIONS:
        return dict_run(partitioner, undirected, k)
    assignment = partitioner.run(CSRGraph.from_undirected(undirected), k).assignment
    return (
        assignment,
        locality(undirected, assignment),
        max_normalized_load(undirected, assignment, k),
    )


def _quality_stdout(name, k, phi, rho, output_path):
    table = format_table(
        [{"partitioner": name, "k": k, "phi": phi, "rho": rho}],
        title="Partitioning quality",
    )
    return f"{table}\nassignment written to {output_path}\n"


def _dict_oracle(graph, name, k, seed, tmp_path, output_path):
    """Expected output file and stdout of ``partition`` on ``graph``."""
    partitioner = _oracle_partitioner(name, seed)
    assignment, phi, rho = _reference(partitioner, graph, k)
    oracle_file = tmp_path / "oracle.txt"
    write_partitioning(dict(sorted(assignment.items())), oracle_file)
    stdout = _quality_stdout(partitioner.name, k, phi, rho, output_path)
    return oracle_file.read_bytes(), stdout


def _cli_partition(capsys, source, name, k, seed, output_path):
    code = main(
        ["partition", *source, "-k", str(k), "--partitioner", name,
         "--seed", str(seed), "--output", str(output_path)]
    )
    assert code == 0
    return output_path.read_bytes(), capsys.readouterr().out


# metis and spinner-pregel ride along on two datasets.
_ORACLE_CASES = [
    (dataset, name)
    for dataset in ("LJ", "TU", "TW", "Y!")
    for name in ARRAY_NATIVE_PARTITIONERS
] + [
    (dataset, name)
    for dataset in ("LJ", "TU")
    for name in ("metis", "spinner-pregel")
]


@pytest.mark.parametrize(("dataset", "name"), _ORACLE_CASES)
def test_dataset_partition_matches_dict_oracle(tmp_path, capsys, dataset, name):
    output_path = tmp_path / "cli.txt"
    expected = _dict_oracle(
        load_dataset(dataset, scale=ORACLE_SCALE), name, 4, ORACLE_SEED, tmp_path, output_path
    )
    source = ["--dataset", dataset, "--scale", str(ORACLE_SCALE)]
    assert _cli_partition(capsys, source, name, 4, ORACLE_SEED, output_path) == expected


def _shuffled_edge_file(tmp_path):
    """Directed pairs over sparse ids, in no particular order, with
    reciprocal pairs (eq. (3) weight 2), duplicates and a self-loop."""
    rng = np.random.default_rng(21)
    ids = rng.choice(1000, size=40, replace=False)
    pairs = ids[rng.integers(0, 40, size=(160, 2))]
    pairs = np.vstack([pairs, pairs[:30, ::-1], pairs[:5], [[ids[0], ids[0]]]])
    rng.shuffle(pairs)
    edge_file = tmp_path / "shuffled.edges"
    edge_file.write_text("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
    return edge_file


@pytest.mark.parametrize("name", available_partitioners())
def test_edge_list_partition_matches_dict_oracle(tmp_path, capsys, name):
    edge_file = _shuffled_edge_file(tmp_path)
    output_path = tmp_path / "cli.txt"
    expected = _dict_oracle(
        read_directed_edge_list(edge_file), name, 3, ORACLE_SEED, tmp_path, output_path
    )
    source = ["--edge-list", str(edge_file)]
    assert _cli_partition(capsys, source, name, 3, ORACLE_SEED, output_path) == expected


@pytest.mark.parametrize("name", ARRAY_NATIVE_PARTITIONERS)
def test_dataset_partition_builds_no_dict_graph(tmp_path, capsys, monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("the CSR path built a dictionary graph")

    monkeypatch.setattr(cli_module, "load_dataset", forbidden)
    monkeypatch.setattr(FastSpinnerResult, "to_assignment", forbidden)
    monkeypatch.setattr(csr_stream_module, "canonical_undirected", forbidden)
    source = ["--dataset", "LJ", "--scale", str(ORACLE_SCALE)]
    data, _ = _cli_partition(capsys, source, name, 4, 3, tmp_path / "out.txt")
    assert data.startswith(b"# partitioning: vertex_id partition\n")


def test_random_partition_honours_seed(tmp_path, capsys):
    source = ["--dataset", "TU", "--scale", str(ORACLE_SCALE)]
    first, _ = _cli_partition(capsys, source, "random", 4, 5, tmp_path / "a.txt")
    again, _ = _cli_partition(capsys, source, "random", 4, 5, tmp_path / "b.txt")
    other, _ = _cli_partition(capsys, source, "random", 4, 6, tmp_path / "c.txt")
    assert first == again
    assert first != other


@pytest.mark.parametrize("dataset", ["LJ", "TU"])
def test_compare_rows_match_dict_oracle(capsys, dataset):
    names = [
        "hash", "modulo", "random", "ldg", "fennel", "wang", "metis", "spinner",
        "spinner-pregel",
    ]
    graph = load_dataset(dataset, scale=ORACLE_SCALE)
    rows = []
    for name in names:
        if name in SPINNER_PARTITIONERS:
            partitioner = make_partitioner(name, config=SpinnerConfig())
        else:
            partitioner = make_partitioner(name)
        _, phi, rho = _reference(partitioner, graph, 4)
        rows.append({"partitioner": name, "phi": phi, "rho": rho})
    code = main(
        ["compare", "--dataset", dataset, "--scale", str(ORACLE_SCALE), "-k", "4",
         "--partitioners", *names]
    )
    assert code == 0
    assert capsys.readouterr().out == format_table(rows, title="k=4") + "\n"


@pytest.mark.parametrize("name", ["spinner", "ldg", "metis"])
def test_edge_store_partition_unchanged(tmp_path, capsys, name):
    edges = tmp_path / "graph.txt"
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 150, size=(600, 2))
    edges.write_text("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
    store_dir = tmp_path / "store"
    assert main(["ingest", "--edge-list", str(edges), "--store", str(store_dir)]) == 0
    capsys.readouterr()
    output_path = tmp_path / "cli.txt"
    # Reference: the array pipeline the store path ran before it shared
    # the dataset path's run/print/write code.
    partitioner = _oracle_partitioner(name, ORACLE_SEED)
    oracle_file = tmp_path / "oracle.txt"
    with open_store(store_dir) as store:
        labels = partitioner.partition_array(store, 4)
        stdout = _quality_stdout(
            partitioner.name,
            4,
            locality(store, labels),
            max_normalized_load(store, labels, 4),
            output_path,
        )
        write_partitioning_array(store.original_ids, labels, oracle_file)
    source = ["--edge-store", str(store_dir)]
    assert _cli_partition(capsys, source, name, 4, ORACLE_SEED, output_path) == (
        oracle_file.read_bytes(),
        stdout,
    )
