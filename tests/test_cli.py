"""Tests for the command-line interface."""

import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from oracles import metrics as dict_metrics
from oracles.assignments import as_mapping, read_partitioning
from oracles.baselines import DICT_PARTITIONS, dict_run
from oracles.edge_list import read_directed_edge_list, write_directed_edge_list

import repro.graph.datasets as datasets_module
from repro.cli import build_parser, main
from repro.core.config import SpinnerConfig
from repro.core.fast import FastSpinnerResult
from repro.graph.conversion import ensure_undirected
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.graph import io as graph_io
from repro.graph.io import (
    ingest_edge_list,
    load_directed_edge_list,
    load_undirected_edge_list,
    write_partitioning,
    write_partitioning_array,
)
from repro.graph.mmap_store import open_store
from repro.graph.undirected import UndirectedGraph
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


@pytest.mark.parametrize("flag", ["--storage", "--storage-dir", "--storage-chunk"])
def test_partition_storage_flags_are_unknown(capsys, flag):
    # The tier follows the graph: an --edge-store input streams from disk.
    with pytest.raises(SystemExit) as excinfo:
        main(["partition", "--dataset", "TU", "-k", "2", flag, "1"])
    assert excinfo.value.code == 2
    last_line = capsys.readouterr().err.splitlines()[-1]
    assert last_line == f"spinner-repro: error: unrecognized arguments: {flag} 1"


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
# Partitioners with a dictionary oracle (the streaming, trivial and
# multilevel baselines) are checked against it.  The others have none:
# Spinner and the Pregel Spinner are checked against the library run on
# a CSR graph built from the dictionary graph.  No partitioner walks a
# dictionary graph.
ARRAY_NATIVE_PARTITIONERS = available_partitioners()
ORACLE_SCALE = 0.05
ORACLE_SEED = 11


def _oracle_partitioner(name, seed):
    """The partitioner the CLI builds for ``partition --partitioner name``."""
    if name in SPINNER_PARTITIONERS:
        return make_partitioner(name, config=SpinnerConfig(seed=seed))
    if name in ("ldg", "fennel", "random"):
        return make_partitioner(name, seed=seed)
    return make_partitioner(name)


def _reference(partitioner, graph, k):
    """Reference assignment plus (phi, rho) on the dictionary graph."""
    undirected = ensure_undirected(graph)
    if partitioner.name in DICT_PARTITIONS:
        return dict_run(partitioner, undirected, k)
    assignment = as_mapping(partitioner.run(CSRGraph.from_undirected(undirected), k))
    return (
        assignment,
        dict_metrics.locality(undirected, assignment),
        dict_metrics.max_normalized_load(undirected, assignment, k),
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


# spinner-pregel rides along on two datasets.
_ORACLE_CASES = [
    (dataset, name)
    for dataset in ("LJ", "TU", "TW", "Y!")
    for name in ARRAY_NATIVE_PARTITIONERS
    if name != "spinner-pregel"
] + [(dataset, "spinner-pregel") for dataset in ("LJ", "TU")]


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

    monkeypatch.setattr(datasets_module, "load_dataset", forbidden)
    monkeypatch.setattr(FastSpinnerResult, "to_assignment", forbidden)
    monkeypatch.setattr(UndirectedGraph, "__init__", forbidden)
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


# ----------------------------------------------------------------------
# edge-list input: validation, readings, scoped imports
# ----------------------------------------------------------------------
def _reading_commands(edge_list, tmp_path):
    """Every command that reads ``--edge-list``, with a minimal argv."""
    return {
        "ingest": ["ingest", "--edge-list", edge_list, "--store", str(tmp_path / "store")],
        "partition": ["partition", "--edge-list", edge_list, "-k", "2"],
        "compare": ["compare", "--edge-list", edge_list, "-k", "2", "--partitioners", "hash"],
        "serve": ["serve", "--edge-list", edge_list, "-k", "2"],
    }


def _one_line_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("spinner-repro: error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    ("content", "fragment"),
    [
        (b"0 1\n9223372036854775808 2\n", "line 2: integer field outside int64"),
        (b"0 1\n3 18446744073709551616\n", "line 2: integer field outside int64"),
        (b"# \xc3\xa9t\xc3\xa9\n0 1\n1 \xff2\n", "line 3: invalid UTF-8"),
        (b"0 1\n-3 2\n", "-3"),
    ],
)
@pytest.mark.parametrize("command", ["ingest", "partition", "compare", "serve"])
def test_bad_edge_list_exits_2_with_one_line(tmp_path, capsys, command, content, fragment):
    edge_list = tmp_path / "bad.edges"
    edge_list.write_bytes(content)
    argv = _reading_commands(str(edge_list), tmp_path)[command]
    assert fragment in _one_line_error(capsys, argv)
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    ("content", "fragment"),
    [
        (b"# ids\n0 1\n9223372036854775808 0\n", "line 3: integer field outside int64"),
        (b"0 1\n1 0\n18446744073709551616 1\n", "line 3: integer field outside int64"),
        (b"0 1\n-1 0\n", "line 2: vertex id outside [0, 2**63)"),
        (b"0 1\n1 \xff\n", "line 2: invalid UTF-8"),
        (b"# \xc3\xa9t\xc3\xa9\r\n0 1\r\n\xe9 0\r\n", "line 3: invalid UTF-8"),
        (b"0 1\n1 x\n", "line 2: non-integer field"),
        (b"0 1\n2\n", "line 2: expected 2 fields, got 1"),
        (b"0 1\n1 1 1\n", "line 2: expected 2 fields, got 3"),
        (b"0 1\n1 5\n", "label 5 outside [0, 2)"),
    ],
)
def test_serve_rejects_a_bad_assignment_file_before_binding(
    tmp_path, capsys, monkeypatch, content, fragment
):
    import asyncio

    def no_bind(*args, **kwargs):
        raise AssertionError("serve bound a port")

    monkeypatch.setattr(asyncio, "start_server", no_bind)
    assignment = tmp_path / "bad.txt"
    assignment.write_bytes(content)
    argv = ["serve", "--dataset", "LJ", "--scale", "0.01", "-k", "2", "--port", "0",
            "--assignment", str(assignment)]
    assert fragment in _one_line_error(capsys, argv)


@pytest.mark.parametrize("command", ["ingest", "partition", "compare", "serve"])
def test_missing_edge_list_exits_2(tmp_path, capsys, command):
    argv = _reading_commands(str(tmp_path / "missing.edges"), tmp_path)[command]
    assert "does not exist" in _one_line_error(capsys, argv)


@pytest.mark.parametrize("weight", ["0", "-2"])
def test_ingest_rejects_non_positive_weights(tmp_path, capsys, weight):
    edge_list = tmp_path / "weights.edges"
    edge_list.write_text(f"0 1 3\n1 2 {weight}\n")
    argv = _reading_commands(str(edge_list), tmp_path)["ingest"]
    assert f"edge weights must be positive, got {weight}" in _one_line_error(capsys, argv)
    assert not (tmp_path / "store").exists()


def test_ingest_rejects_an_id_its_dense_id_space_cannot_hold(tmp_path, capsys, monkeypatch):
    edge_list = tmp_path / "huge_id.edges"
    edge_list.write_text("0 1\n1 1000000000000\n")
    argv = _reading_commands(str(edge_list), tmp_path)["ingest"]
    err = _one_line_error(capsys, argv)
    assert "vertex id 1000000000000 too large for a dense id space after 2 edges" in err
    assert not (tmp_path / "store").exists()

    # The bound is 2 x edges read + the allowance; a declared vertex count
    # replaces it.
    monkeypatch.setattr(graph_io, "ISOLATED_ID_ALLOWANCE", 8)
    edge_list.write_text("0 1\n1 11\n")
    assert main(argv) == 0
    with open_store(tmp_path / "store") as store:
        assert store.num_vertices == 12
    edge_list.write_text("0 1\n1 12\n")
    other = ["ingest", "--edge-list", str(edge_list), "--store", str(tmp_path / "other")]
    assert "vertex id 12 too large" in _one_line_error(capsys, other)
    assert not (tmp_path / "other").exists()
    assert main([*other, "--num-vertices", "13"]) == 0


def test_ingest_rejects_a_declared_vertex_count_memory_cannot_hold(tmp_path, capsys):
    edge_list = tmp_path / "one.edges"
    edge_list.write_text("0 1\n")
    argv = _reading_commands(str(edge_list), tmp_path)["ingest"]
    err = _one_line_error(capsys, [*argv, "--num-vertices", "1000000000000"])
    assert "declared vertex count 1000000000000 needs" in err
    assert not (tmp_path / "store").exists()

    # A count that fits still ingests, as isolated vertices.
    assert main([*argv, "--num-vertices", "1000000"]) == 0
    with open_store(tmp_path / "store") as store:
        assert store.num_vertices == 1000000 and store.num_edges == 1


def test_ingest_rejects_a_store_path_that_is_a_file(tmp_path, capsys):
    edge_list = tmp_path / "edges.txt"
    edge_list.write_text("0 1\n")
    store = tmp_path / "store"
    store.write_text("not a directory\n")
    argv = ["ingest", "--edge-list", str(edge_list), "--store", str(store)]
    assert "is not a directory" in _one_line_error(capsys, argv)
    assert store.read_text() == "not a directory\n"


def test_failed_ingest_leaves_an_existing_store_as_it_was(tmp_path, capsys):
    good = tmp_path / "good.edges"
    good.write_text("0 1\n1 2 4\n")
    store = tmp_path / "store"
    assert main(["ingest", "--edge-list", str(good), "--store", str(store)]) == 0
    before = {name: (store / name).read_bytes() for name in sorted(os.listdir(store))}
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n1 2 0\n")
    _one_line_error(capsys, ["ingest", "--edge-list", str(bad), "--store", str(store)])
    after = {name: (store / name).read_bytes() for name in sorted(os.listdir(store))}
    assert after == before


def test_three_readings_of_one_edge_list(tmp_path):
    """``partition``/``compare`` read directed pairs weighted by eq. (3);
    ``serve`` reads undirected edges keeping the first weight; ``ingest``
    reads an undirected multigraph.  One file, three graphs."""
    edge_list = tmp_path / "edges.txt"
    edge_list.write_text("0 1 5\n1 0 3\n0 1 2\n1 2\n2 2 4\n")

    def pairs(graph):
        sources = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        ids = graph.original_ids
        return sorted(
            (int(ids[u]), int(ids[v]), int(w))
            for u, v, w in zip(sources, graph.indices, graph.weights)
            if ids[u] < ids[v]
        )

    directed = load_directed_edge_list(edge_list)
    assert directed.original_ids.tolist() == [0, 1, 2]
    assert pairs(directed) == [(0, 1, 2), (1, 2, 1)]
    undirected = load_undirected_edge_list(edge_list)
    assert pairs(undirected) == [(0, 1, 5), (1, 2, 1)]
    meta = ingest_edge_list(edge_list, tmp_path / "store")
    assert (meta["num_half_edges"], meta["total_weight"]) == (10, 15)
    rows = np.array([[0, 1], [1, 0], [0, 1], [1, 2], [2, 2]])
    expected = CSRGraph.from_edge_list(rows, 3, [5, 3, 2, 1, 4])
    with open_store(tmp_path / "store") as store:
        assert np.array_equal(store.indices, expected.indices)
        assert np.array_equal(store.weights, expected.weights)


def test_commands_import_only_what_they_run(tmp_path):
    """``ingest`` and ``partition`` never load the serving stack, the
    Pregel runtime, the experiment harnesses, METIS or the dictionary
    graph types."""
    edge_list = tmp_path / "edges.txt"
    edge_list.write_text("".join(f"{i} {(i * 7 + 1) % 40}\n" for i in range(40)))
    store = tmp_path / "store"
    script = textwrap.dedent(
        f"""
        import sys
        from repro.cli import main

        for argv in (
            ["ingest", "--edge-list", {str(edge_list)!r}, "--store", {str(store)!r}],
            ["partition", "--edge-store", {str(store)!r}, "-k", "2"],
            ["partition", "--dataset", "TU", "--scale", "0.05", "-k", "2"],
            ["partition", "--edge-list", {str(edge_list)!r}, "-k", "2"],
        ):
            assert main(argv) == 0
        forbidden = ("asyncio", "repro.serving", "repro.pregel", "repro.experiments",
                     "repro.partitioners.metis", "repro.graph.digraph",
                     "repro.graph.undirected")
        print("LOADED", [name for name in forbidden if name in sys.modules])
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "LOADED []"
