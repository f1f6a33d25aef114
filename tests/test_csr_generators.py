"""Golden digests of every generator and dataset proxy, in both views.

Each random process is written once (one builder per generator) and both
graph views derive from it.  The SHA-256 digests below were recorded from
the earlier implementation, which kept a separate dictionary builder and
CSR builder per generator, and pin the output bit for bit:

* dictionary graphs by vertex order and per-vertex neighbour order (edge
  order for a :class:`DiGraph`), since insertion order feeds METIS, the
  Pregel runtimes and the edge-list writers;
* CSR graphs by their ``indptr``/``indices``/``weights``/``original_ids``
  arrays.

The CSR view of a generator's builder must also equal
``CSRGraph.from_undirected`` of its dictionary view, and a dataset's CSR
view must hold the same weighted edges as ``ensure_undirected`` of its
dictionary view.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.conversion import ensure_undirected
from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_names, load_dataset, load_dataset_csr
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    _barabasi_albert_builder,
    _erdos_renyi_builder,
    _powerlaw_cluster_builder,
    _ring_lattice_builder,
    _watts_strogatz_builder,
    to_directed_reciprocal,
)

from oracles.graphs import (
    barabasi_albert,
    erdos_renyi,
    powerlaw_cluster,
    ring_lattice,
    watts_strogatz,
)

GOLDEN = {
    "ring_lattice": "6563540c564b1a6fa6cfb61a4d88332e6e11c0633409a5705c9b15c61f484150",
    "watts_strogatz-0": "5452506b9c12dc2174767cf1d4d93b4632c2297f5ea1ac386f92360559c4c9ca",
    "watts_strogatz-7": "012abb13cf511d48a817d1abbf05aca56f3d3a8b65fec71b5206dc37e56e6872",
    "watts_strogatz-42": "0783547ffa6579f155802cb8c02178546f56682aacf83fbbd7e689f5af7d8d8b",
    "erdos_renyi-0": "da22985e4f0077e49cbacf509391067b5eac46c40a0e181b524e389e6dbf1732",
    "erdos_renyi-7": "f872f8155ce5a3274960c8cf0e7482d13184af8c39f623cae3e25207cbde95ef",
    "erdos_renyi-42": "dae8a00bc2924aaf5ff589d7c70a614fd720803f09093d0a2c3d6769eaa4f9c4",
    "barabasi_albert-0": "643aa4f2234ea452a7d3703eae8aa7b11b3d0814bc757b21cf2e4c88bd87ff9f",
    "barabasi_albert-7": "ce2618ae8397ab887784891d9eb6e554586fead14014ee9e3f2901748f936f2f",
    "barabasi_albert-42": "341787a6205594bbff02260cd86a9df318d2ede8b53d2a935767eb5c1e93f9a8",
    "barabasi_albert_directed-0": "da73d63028e0639ee0e92216b30bc1178e9d5dd0c9a6b8f5dd3aac50c9dde33e",
    "barabasi_albert_directed-7": "fadb00926a3e088bc2e64c546ed591ac556a4d98a27792ea3eec9ec43c9c96fd",
    "barabasi_albert_directed-42": "f9972087ad52072823da913b8e3995087235c62661472d98a521be412522a308",
    "powerlaw_cluster-0": "4f6adbc606b5d70954c16fdec468e085dd59e689c6854706ac630b1047bc9b28",
    "powerlaw_cluster-7": "1df0a12ea3127f5444efe558ac653f9f3959731e27fe93aafc3c72f8f679b703",
    "powerlaw_cluster-42": "28105151315ab9267ba1c6fc503800e7e01158cf18eda4c70bdc7ba293a3f224",
    "to_directed_reciprocal": "ee5ffa2420521b25d21c66ec4d15cc534d4c5b24b80d481f693c95687ace1fd0",
    "LJ-0.04-dict": "6722b86d4e15b638b8a8069afdd40357f01dbd4dfadf8cdab1078867713a07fc",
    "LJ-0.04-csr": "7518dc5dc5fc09bbba5d8cf638d901ff1abc681c0562917bc0bb24146b65edb1",
    "LJ-0.3-dict": "b05797bb74c19cb8436a4221c863175d50e4b0adb13b8ed43bdc27a5cdfe3edc",
    "LJ-0.3-csr": "8b17d324de10c818a476f53260836b8c0a65b55aa06eb4fed609157f94319c58",
    "TU-0.04-dict": "cfe76571b5c95647d7e9d57649f3afad9b206fd467b917b297ab17aab71321d4",
    "TU-0.04-csr": "99af2806607af837cb3106404ce8bc35202052228b7a30c1d8729bfd105a0525",
    "TU-0.3-dict": "be592c90db7263749f738ab17b66555cdd88ac9e6140447b5866d08b62bf4947",
    "TU-0.3-csr": "3e03ac73d5baf1a6756a15e06e0465ef298c0466400de688cc5e96276a2c50e3",
    "G+-0.04-dict": "a8f25c21f900b5a7de3b9ae5f51ab1a1c8f402b004cd4c3f7ea89538b44967d9",
    "G+-0.04-csr": "a5c144b5406be0d53890bba29e7a7ad8ba9512e6e1403fd5e66b2a1f542645ce",
    "G+-0.3-dict": "41481ceef25513be53524e491f20cf954e73815607c6411586de652ed32c97d1",
    "G+-0.3-csr": "73917f4182f86dd351ddddb26dd90287e069291cda4cdf4eec10f0cde8ed5868",
    "TW-0.04-dict": "0c3fe3dd918f2f003f565e20d1ec2af9b8231e3b519e6284a8a5a3cfde181537",
    "TW-0.04-csr": "10a4f2272a1145ca9046d3f78827cf32a9bfd64b7e9cd96314a6c59082989ff8",
    "TW-0.3-dict": "552b08fb881a2b3e7aaea685bc646fabe818de154180fbd82706ce6c00e4dda5",
    "TW-0.3-csr": "e824228bde1902f30b045a20b80e75722d0ae00064474c45eb61fb4f70d45ff0",
    "FR-0.04-dict": "4967243f5a4ba3d2c551a65f762dbdc909c79d712c1158227302b1840e53ca38",
    "FR-0.04-csr": "0e1e3a7d9f1f104a62bb1f79ea9d24fd869f284ff4433e6e90a29fce229b3917",
    "FR-0.3-dict": "20d0c8944ec5dc5d759bc1fcce7e24cdb7876bc13dd042c4b2eede185b5a710c",
    "FR-0.3-csr": "50a193c95349704bdfdbf115ab256c4ff8f29ffab74d8dd8036d71c13c81f2ab",
    "Y!-0.04-dict": "1a784e503f2d64db5dbe6b1bbc642ffc91dc6e98a42990f3166cbd7b75e39363",
    "Y!-0.04-csr": "66dd6199da19d3c425ddb3610e20a7e01532b4a02448d2ff2a0d4a1df683ae70",
    "Y!-0.3-dict": "6a4e3a1c12ccd7d287235a19920bc4cd202a81b9bf6d9510d100bf11c225a6eb",
    "Y!-0.3-csr": "981e26ac3ee124ad582e903e38b4b805efaf6cb514b996d9c849992e20bebd96",
    "TW-seed11-dict": "33cf6d7db1c09c1a9ea1a146b87b62f128efb612728a3297a19ef28e11e31f0a",
    "TW-seed11-csr": "156f8e816c389ca3c76e5237bd0aa57e5be0d9b06bb0e0d1ddf6255a5e232684",
}


def _digest(graph) -> str:
    """SHA-256 of a graph's full content, including its iteration order."""
    sha = hashlib.sha256()
    if isinstance(graph, CSRGraph):
        for array in (graph.indptr, graph.indices, graph.weights, graph.original_ids):
            sha.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    elif isinstance(graph, DiGraph):
        sha.update(repr((list(graph.vertices()), list(graph.edges()))).encode())
    else:
        adjacency = [(v, list(graph.neighbors(v).items())) for v in graph.vertices()]
        sha.update(repr(adjacency).encode())
    return sha.hexdigest()


def _assert_golden(key: str, graph, builder) -> None:
    assert _digest(graph) == GOLDEN[key]
    assert _digest(builder.to_csr()) == _digest(CSRGraph.from_undirected(graph))


def test_ring_lattice_csr_equals_dict():
    _assert_golden("ring_lattice", ring_lattice(120, 6), _ring_lattice_builder(120, 6))


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_watts_strogatz_csr_equals_dict(seed):
    _assert_golden(
        f"watts_strogatz-{seed}",
        watts_strogatz(240, 8, 0.3, seed=seed),
        _watts_strogatz_builder(240, 8, 0.3, seed=seed),
    )


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_erdos_renyi_csr_equals_dict(seed):
    _assert_golden(
        f"erdos_renyi-{seed}",
        erdos_renyi(250, 700, seed=seed),
        _erdos_renyi_builder(250, 700, seed=seed),
    )


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_barabasi_albert_csr_equals_dict(seed):
    _assert_golden(
        f"barabasi_albert-{seed}",
        barabasi_albert(260, 6, seed=seed),
        _barabasi_albert_builder(260, 6, seed=seed),
    )
    directed = barabasi_albert(260, 6, seed=seed, directed=True)
    assert _digest(directed) == GOLDEN[f"barabasi_albert_directed-{seed}"]


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_powerlaw_cluster_csr_equals_dict(seed):
    _assert_golden(
        f"powerlaw_cluster-{seed}",
        powerlaw_cluster(260, 6, 0.5, seed=seed),
        _powerlaw_cluster_builder(260, 6, 0.5, seed=seed),
    )


def test_to_directed_reciprocal_matches_golden():
    skeleton = powerlaw_cluster(260, 6, 0.5, seed=3)
    digraph = to_directed_reciprocal(skeleton, 0.4, seed=5)
    assert _digest(digraph) == GOLDEN["to_directed_reciprocal"]


def test_csr_generators_reject_bad_parameters():
    with pytest.raises(GraphError):
        ring_lattice(10, 3)  # odd degree
    with pytest.raises(GraphError):
        watts_strogatz(100, 6, 1.5, seed=0)  # beta out of range
    with pytest.raises(GraphError):
        barabasi_albert(5, 6, seed=0)  # too few vertices
    with pytest.raises(GraphError):
        powerlaw_cluster(100, 6, -0.1, seed=0)  # bad triangle probability
    with pytest.raises(GraphError):
        to_directed_reciprocal(ring_lattice(10, 2), 1.5)  # bad reciprocity


def _sorted_triples(csr: CSRGraph):
    """Canonical (source, target, weight) triple arrays of a CSR graph."""
    sources = np.repeat(np.arange(csr.num_vertices, dtype=np.int64), np.diff(csr.indptr))
    order = np.lexsort((csr.weights, csr.indices, sources))
    return sources[order], csr.indices[order], csr.weights[order]


def _assert_dataset_golden(key: str, dict_graph, csr_graph: CSRGraph) -> None:
    assert _digest(dict_graph) == GOLDEN[f"{key}-dict"]
    assert _digest(csr_graph) == GOLDEN[f"{key}-csr"]
    # ensure_undirected walks a DiGraph's successor sets, so only the
    # canonical edge order is comparable.
    reference = CSRGraph.from_undirected(ensure_undirected(dict_graph))
    for a, b in zip(_sorted_triples(reference), _sorted_triples(csr_graph)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", dataset_names())
def test_dataset_csr_loader_equals_dict_pipeline(name):
    for scale in (0.04, 0.3):
        _assert_dataset_golden(
            f"{name}-{scale}",
            load_dataset(name, scale=scale),
            load_dataset_csr(name, scale=scale),
        )


def test_dataset_csr_loader_honours_seed_override():
    _assert_dataset_golden(
        "TW-seed11",
        load_dataset("TW", scale=0.04, seed=11),
        load_dataset_csr("TW", scale=0.04, seed=11),
    )
    with pytest.raises(KeyError):
        load_dataset_csr("nope")


def test_dataset_csr_weights_follow_eq3():
    # Directed proxies produce weights in {1, 2}; undirected ones all 1.
    weighted = load_dataset_csr("TW", scale=0.04)
    assert set(np.unique(weighted.weights).tolist()) <= {1, 2}
    assert (weighted.weights == 2).any()
    unweighted = load_dataset_csr("TU", scale=0.04)
    assert set(np.unique(unweighted.weights).tolist()) == {1}
