"""Tests for graph and partitioning file I/O."""

import pytest

from repro.errors import GraphFormatError
from repro.graph.digraph import DiGraph
from repro.graph.io import (
    atomic_open,
    atomic_write_text,
    read_directed_edge_list,
    read_partitioning,
    read_undirected_edge_list,
    write_directed_edge_list,
    write_partitioning,
    write_undirected_edge_list,
)
from repro.graph.undirected import UndirectedGraph


def test_directed_roundtrip(tmp_path):
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
    path = tmp_path / "graph.edges"
    write_directed_edge_list(graph, path)
    loaded = read_directed_edge_list(path)
    assert sorted(loaded.edges()) == sorted(graph.edges())


def test_undirected_roundtrip_preserves_weights(tmp_path):
    graph = UndirectedGraph.from_edges([(0, 1, 2), (1, 2, 1)])
    path = tmp_path / "graph.wedges"
    write_undirected_edge_list(graph, path)
    loaded = read_undirected_edge_list(path)
    assert loaded.weight(0, 1) == 2
    assert loaded.weight(1, 2) == 1


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "graph.edges"
    path.write_text("# comment\n\n0 1\n1 2\n")
    graph = read_directed_edge_list(path)
    assert graph.num_edges == 2


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 2 3\n")
    with pytest.raises(GraphFormatError):
        read_directed_edge_list(path)


def test_non_integer_field_raises(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("a b\n")
    with pytest.raises(GraphFormatError):
        read_directed_edge_list(path)


def test_partitioning_roundtrip(tmp_path):
    assignment = {0: 1, 1: 0, 2: 1, 10: 3}
    path = tmp_path / "parts.txt"
    write_partitioning(assignment, path)
    assert read_partitioning(path) == assignment


def test_partitioning_bad_line(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(GraphFormatError):
        read_partitioning(path)


def test_undirected_reader_skips_self_loops(tmp_path):
    path = tmp_path / "loops.edges"
    path.write_text("0 0\n0 1\n")
    graph = read_undirected_edge_list(path)
    assert graph.num_edges == 1


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
def test_atomic_write_text_roundtrip(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"


def test_atomic_open_rejects_read_modes(tmp_path):
    with pytest.raises(ValueError):
        with atomic_open(tmp_path / "out.txt", "r"):
            pass


def test_interrupted_write_preserves_previous_content(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as handle:
            handle.write("half a new fi")
            raise RuntimeError("simulated crash mid-write")
    assert path.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [path]


def test_interrupted_write_creates_nothing_for_new_file(tmp_path):
    path = tmp_path / "fresh.txt"
    with pytest.raises(RuntimeError):
        with atomic_open(path) as handle:
            handle.write("doomed")
            raise RuntimeError("simulated crash mid-write")
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
