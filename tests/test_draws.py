"""The generators' draw stream against numpy, and the builders against
their scalar-draw oracles.

``repro.graph.generators._Draws`` reproduces ``Generator.random()`` and
``Generator.integers(n)`` from raw PCG64 blocks.  The model tests replay
random interleavings of both calls against a real ``Generator`` and
require equal values and, afterwards, an equal ``bit_generator.state``
(including PCG64's buffered 32-bit half).  The builder and orientation
tests then require every generator to equal the scalar-call loops of
``tests/oracles/generators.py`` beyond the fixed seeds of the golden
digests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import generators as oracle
from repro.errors import GraphError
from repro.graph import generators
from repro.graph.datasets import dataset_names, load_dataset_csr
from repro.graph.generators import _Draws, _orientations

_SEED = st.integers(0, 2**32)
#: Bounds that hit each branch: no draw (1), the 32-bit edge (2**32) and
#: a bound that rejects about half of its first draws (2**31 + 1).
_BOUND = st.one_of(st.sampled_from([1, 2, 3, 2**31 + 1, 2**32]), st.integers(1, 2**32))
_CALL = st.one_of(st.none(), _BOUND)  # None: random(), n: integers(n)
#: A probability, both ends included.
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _replay(draws: _Draws, reference: np.random.Generator, calls) -> None:
    for call in calls:
        if call is None:
            assert draws.random() == reference.random()
        else:
            assert draws.integers(call) == int(reference.integers(call))


def _generator(seed: int, warmup: int) -> np.random.Generator:
    """A generator after ``warmup`` draws of 7 (odd: a half is buffered)."""
    rng = np.random.default_rng(seed)
    rng.integers(7, size=warmup)
    return rng


@settings(max_examples=150, deadline=None)
@given(seed=_SEED, calls=st.lists(_CALL, max_size=60))
def test_stream_from_a_seed_equals_default_rng(seed, calls):
    with _Draws(seed) as draws:
        _replay(draws, np.random.default_rng(seed), calls)


@settings(max_examples=150, deadline=None)
@given(seed=_SEED, warmup=st.integers(0, 3), calls=st.lists(_CALL, max_size=60))
def test_stream_leaves_the_callers_generator_where_scalar_calls_would(seed, warmup, calls):
    caller = _generator(seed, warmup)
    reference = _generator(seed, warmup)
    assert caller.bit_generator.state["has_uint32"] == warmup % 2
    with _Draws(caller) as draws:
        _replay(draws, reference, calls)
    assert caller.bit_generator.state == reference.bit_generator.state
    assert caller.random() == reference.random()
    assert int(caller.integers(1000)) == int(reference.integers(1000))


@pytest.mark.parametrize("warmup", [0, 1])
def test_stream_across_many_blocks(warmup):
    # Long enough to refill several raw blocks and rewind inside the last.
    calls = np.random.default_rng(9).integers(0, 4, size=12_000).tolist()
    bounds = [None, 2, 2**31 + 1, 1000]
    caller, reference = _generator(5, warmup), _generator(5, warmup)
    with _Draws(caller) as draws:
        _replay(draws, reference, [bounds[c] for c in calls])
    assert caller.bit_generator.state == reference.bit_generator.state


def test_stream_rejects_out_of_range_bounds_and_other_bit_generators():
    with _Draws(1) as draws:
        for bound in (2**32 + 1, 0):
            with pytest.raises(GraphError):
                draws.integers(bound)
    for bit_generator in (np.random.MT19937(1), np.random.PCG64DXSM(1)):
        with pytest.raises(TypeError):
            _Draws(np.random.Generator(bit_generator))


def _assert_same_builder(fast, reference) -> None:
    assert fast.num_vertices == reference.num_vertices
    # Neighbour order is the insertion order; every weight is 1.
    assert [list(neighbours) for neighbours in fast._adj] == [
        list(neighbours) for neighbours in reference._adj
    ]
    fast_graph, reference_graph = fast.to_undirected(), reference.to_undirected()
    for v in range(fast.num_vertices):
        assert list(fast_graph.neighbors(v).items()) == list(
            reference_graph.neighbors(v).items()
        )
    fast_csr, reference_csr = fast.to_csr(), oracle.to_csr(reference)
    for name in ("indptr", "indices", "weights", "original_ids"):
        assert np.array_equal(getattr(fast_csr, name), getattr(reference_csr, name))


def _assert_builds_like_oracle(name: str, args: tuple, seed: int, warmup: int) -> None:
    """Seeded and caller-generator runs of a builder equal the oracle's."""
    build, reference = getattr(generators, name), getattr(oracle, name)
    _assert_same_builder(build(*args, seed=seed), reference(*args, seed=seed))
    caller, expected = _generator(seed, warmup), _generator(seed, warmup)
    _assert_same_builder(build(*args, seed=caller), reference(*args, seed=expected))
    assert caller.bit_generator.state == expected.bit_generator.state


_BUILDER_SETTINGS = settings(max_examples=40, deadline=None)


@_BUILDER_SETTINGS
@given(
    num_vertices=st.integers(1, 120),
    edges_per_vertex=st.integers(0, 6),
    probability=_UNIT,
    seed=_SEED,
    warmup=st.integers(0, 1),
)
def test_powerlaw_cluster_builder_equals_oracle(
    num_vertices, edges_per_vertex, probability, seed, warmup
):
    args = (num_vertices, edges_per_vertex, probability)
    _assert_builds_like_oracle("_powerlaw_cluster_builder", args, seed, warmup)


@_BUILDER_SETTINGS
@given(
    num_vertices=st.integers(2, 120),
    edges_per_vertex=st.integers(1, 6),
    seed=_SEED,
    warmup=st.integers(0, 1),
)
def test_barabasi_albert_builder_equals_oracle(num_vertices, edges_per_vertex, seed, warmup):
    edges_per_vertex = min(edges_per_vertex, num_vertices - 1)
    args = (num_vertices, edges_per_vertex)
    _assert_builds_like_oracle("_barabasi_albert_builder", args, seed, warmup)
    assert generators._barabasi_albert_edges(*args, seed=seed) == (
        oracle._barabasi_albert_edges(*args, seed=seed)
    )


@_BUILDER_SETTINGS
@given(
    half_degree=st.integers(1, 4),
    extra=st.integers(1, 80),
    beta=_UNIT,
    seed=_SEED,
    warmup=st.integers(0, 1),
)
def test_watts_strogatz_builder_equals_oracle(half_degree, extra, beta, seed, warmup):
    args = (2 * half_degree + extra, 2 * half_degree, beta)
    _assert_builds_like_oracle("_watts_strogatz_builder", args, seed, warmup)


@_BUILDER_SETTINGS
@given(
    num_vertices=st.integers(1, 80),
    num_edges=st.integers(0, 300),
    seed=_SEED,
    warmup=st.integers(0, 1),
)
def test_erdos_renyi_builder_equals_oracle(num_vertices, num_edges, seed, warmup):
    args = (num_vertices, num_edges)
    _assert_builds_like_oracle("_erdos_renyi_builder", args, seed, warmup)


def _assert_orientations_like_oracle(num_edges, reciprocity, seed):
    codes = _orientations(num_edges, reciprocity, seed)
    assert codes.dtype == np.uint8
    assert codes.tobytes() == bytes(oracle._orientations(num_edges, reciprocity, seed))
    caller, expected = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        _orientations(num_edges, reciprocity, caller),
        np.frombuffer(oracle._orientations(num_edges, reciprocity, expected), dtype=np.uint8),
    )
    assert caller.bit_generator.state == expected.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    num_edges=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 400)),
    reciprocity=_UNIT,
    seed=_SEED,
)
def test_orientations_equal_oracle(num_edges, reciprocity, seed):
    _assert_orientations_like_oracle(num_edges, reciprocity, seed)


@pytest.mark.parametrize("num_edges", [1, 2, 3, 5, 1001])
@pytest.mark.parametrize("reciprocity", [0.0, 1e-9, 0.5, 1.0])
def test_orientations_carry_direction_draws_across_blocks(num_edges, reciprocity):
    # With no reciprocal edges every block ends mid-edge for an odd count,
    # so the direction draw carries into the next block.
    for seed in range(4):
        _assert_orientations_like_oracle(num_edges, reciprocity, seed)


def test_orientations_reject_bad_reciprocity():
    for reciprocity in (-0.1, 1.5):
        with pytest.raises(GraphError):
            _orientations(3, reciprocity, 0)


@pytest.mark.parametrize("name", dataset_names())
def test_dataset_proxies_equal_the_scalar_draw_pipeline(name):
    fast = load_dataset_csr(name, scale=0.1)
    reference = oracle.load_dataset_csr(name, scale=0.1)
    for array in ("indptr", "indices", "weights", "original_ids"):
        assert np.array_equal(getattr(fast, array), getattr(reference, array))
