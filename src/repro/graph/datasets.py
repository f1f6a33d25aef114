"""Scaled-down structural proxies for the paper's real-world datasets.

Table II of the paper lists six graphs (LiveJournal, Tuenti, Google+,
Twitter, Friendster, Yahoo! web) with 4.8M–1.4B vertices.  Those datasets
are either proprietary or far too large for this environment, so each is
replaced by a synthetic graph that preserves the structural properties
the evaluation depends on:

* directed vs. undirected (Table II's "Directed" column),
* heavy-tailed degree distribution with hubs (Twitter, Friendster),
* community structure / clustering (LiveJournal, Tuenti, Google+), and
* sparse, shallow, web-like structure (Yahoo!).

Every proxy accepts a ``scale`` multiplier so tests can run on tiny graphs
while benchmarks use larger ones.  The default sizes (scale 1.0) are a few
thousand vertices — large enough for the quality trends to be visible,
small enough for a pure-Python evaluation to finish quickly.

Each proxy is one row of :data:`_RECIPES`: a skeleton generator with its
parameters, the reciprocity that orients a directed proxy, and a default
seed.  :func:`load_dataset_csr` is the view the library runs on.
:func:`load_dataset`, the dictionary view of the same row and draws
(``load_dataset_csr`` holds exactly the weighted edges of
``ensure_undirected(load_dataset(...))``), stays for the benchmark
harness, which traces it by name.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    _barabasi_albert_builder,
    _EdgeListBuilder,
    _powerlaw_cluster_builder,
    _watts_strogatz_builder,
    _weighted_reciprocal_csr,
    to_directed_reciprocal,
)

if TYPE_CHECKING:
    from repro.graph.digraph import DiGraph
    from repro.graph.undirected import UndirectedGraph


@dataclass(frozen=True)
class DatasetSpec:
    """Descriptor of a dataset proxy.

    Attributes
    ----------
    name:
        Short name used throughout the paper (``"LJ"``, ``"TW"``, ...).
    full_name:
        Human-readable name.
    directed:
        Whether the original dataset is directed (Table II).
    base_vertices:
        Number of vertices at ``scale = 1.0``.
    description:
        What the proxy mimics and which generator builds it.
    """

    name: str
    full_name: str
    directed: bool
    base_vertices: int
    description: str


#: Registry of dataset proxies keyed by the short name used in the paper.
DATASET_SPECS: dict[str, DatasetSpec] = {
    "LJ": DatasetSpec(
        name="LJ",
        full_name="LiveJournal (proxy)",
        directed=True,
        base_vertices=4000,
        description="power-law cluster graph with moderate reciprocity",
    ),
    "TU": DatasetSpec(
        name="TU",
        full_name="Tuenti (proxy)",
        directed=False,
        base_vertices=5000,
        description="undirected social graph with high clustering",
    ),
    "G+": DatasetSpec(
        name="G+",
        full_name="Google+ (proxy)",
        directed=True,
        base_vertices=4500,
        description="directed follower graph with low reciprocity",
    ),
    "TW": DatasetSpec(
        name="TW",
        full_name="Twitter (proxy)",
        directed=True,
        base_vertices=5000,
        description="preferential-attachment graph with pronounced hubs",
    ),
    "FR": DatasetSpec(
        name="FR",
        full_name="Friendster (proxy)",
        directed=False,
        base_vertices=6000,
        description="large undirected social graph, weaker clustering",
    ),
    "Y!": DatasetSpec(
        name="Y!",
        full_name="Yahoo! web (proxy)",
        directed=True,
        base_vertices=8000,
        description="sparse small-world web graph with low average degree",
    ),
}


class _Recipe(NamedTuple):
    """How one proxy is generated (see :data:`_RECIPES`)."""

    #: Skeleton builder, called as ``build(num_vertices, *params, seed=seed)``.
    build: Callable[..., _EdgeListBuilder]
    params: tuple
    #: Fraction of reciprocal edges for a directed proxy; ``None`` keeps the
    #: skeleton undirected.
    reciprocity: float | None
    #: Default seed of the skeleton (overridable per call).
    seed: int


#: One row per proxy.  A directed proxy orients its skeleton with
#: :func:`~repro.graph.generators.to_directed_reciprocal` at ``seed + 1``.
_RECIPES: dict[str, _Recipe] = {
    # Clustered power-law graph, ~50% reciprocal edges.
    "LJ": _Recipe(_powerlaw_cluster_builder, (7, 0.5), 0.5, 1),
    # Undirected, highly clustered social graph.
    "TU": _Recipe(_powerlaw_cluster_builder, (10, 0.7), None, 2),
    # Directed follower graph with low reciprocity.
    "G+": _Recipe(_powerlaw_cluster_builder, (8, 0.4), 0.25, 3),
    # Hub-dominated preferential-attachment follower graph.
    "TW": _Recipe(_barabasi_albert_builder, (12,), 0.2, 4),
    # Large undirected graph with weaker clustering.
    "FR": _Recipe(_powerlaw_cluster_builder, (9, 0.3), None, 5),
    # Sparse small-world web graph with low average degree.
    "Y!": _Recipe(_watts_strogatz_builder, (6, 0.2), 0.1, 6),
}


def _skeleton(
    name: str, scale: float, seed: int | None
) -> tuple[_EdgeListBuilder, float | None, int]:
    """Build a proxy's skeleton; return it with its reciprocity and seed."""
    try:
        recipe = _RECIPES[name]
    except KeyError:
        known = ", ".join(sorted(_RECIPES))
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}") from None
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigurationError(f"dataset scale must be a positive number, got {scale}")
    if seed is None:
        seed = recipe.seed
    num_vertices = max(64, int(round(DATASET_SPECS[name].base_vertices * scale)))
    skeleton = recipe.build(num_vertices, *recipe.params, seed=seed)
    return skeleton, recipe.reciprocity, seed


def load_dataset(
    name: str, scale: float = 1.0, seed: int | None = None
) -> DiGraph | UndirectedGraph:
    """Load a dataset proxy by its paper short name.

    Parameters
    ----------
    name:
        One of ``"LJ"``, ``"TU"``, ``"G+"``, ``"TW"``, ``"FR"``, ``"Y!"``.
    scale:
        Size multiplier relative to the default proxy size; must be a
        finite positive number.
    seed:
        Optional seed override; each dataset has a stable default seed.

    Returns
    -------
    DiGraph | UndirectedGraph
        Directed or undirected graph matching Table II's directedness.
    """
    skeleton, reciprocity, seed = _skeleton(name, scale, seed)
    if reciprocity is None:
        return skeleton.to_undirected()
    return to_directed_reciprocal(skeleton.to_undirected(), reciprocity, seed=seed + 1)


def load_dataset_csr(name: str, scale: float = 1.0, seed: int | None = None) -> CSRGraph:
    """Load a dataset proxy as its weighted undirected CSR view.

    Same names, seeds and graphs as :func:`load_dataset` followed by
    ``ensure_undirected`` (eq. (3) weights), but array-native end to end.
    """
    skeleton, reciprocity, seed = _skeleton(name, scale, seed)
    if reciprocity is None:
        return skeleton.to_csr()
    return _weighted_reciprocal_csr(skeleton, reciprocity, seed=seed + 1)


def dataset_names() -> list[str]:
    """Return the dataset short names in the order used by the paper."""
    return ["LJ", "TU", "G+", "TW", "FR", "Y!"]
