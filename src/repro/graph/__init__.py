"""Graph substrate: data structures, generators, datasets and statistics.

The Spinner paper operates on directed graphs loaded into Giraph and
converts them internally to weighted undirected graphs (Section III-A).
This subpackage provides the equivalent building blocks:

* :class:`repro.graph.digraph.DiGraph` — adjacency-list directed graph.
* :class:`repro.graph.undirected.UndirectedGraph` — weighted undirected
  graph, the representation Spinner actually partitions.
* :func:`repro.graph.conversion.to_weighted_undirected` — the directed to
  weighted-undirected conversion of eq. (3) in the paper.
* :class:`repro.graph.csr.CSRGraph` — a compressed sparse row view used by
  the vectorized Spinner implementation and by the baselines.
* :mod:`repro.graph.generators` — synthetic generators (Watts–Strogatz,
  Barabási–Albert, Erdős–Rényi, …).
* :mod:`repro.graph.datasets` — scaled-down proxies for the paper's
  real-world datasets (Table II).
* :mod:`repro.graph.dynamic` — edge-arrival streams for the dynamic
  repartitioning experiments (Figure 7).
* :mod:`repro.graph.delta_csr` — the serving layer's live graph: an
  immutable CSR base plus an append-only delta of arrived edges.
"""

from repro.graph.conversion import to_weighted_undirected
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph

__all__ = [
    "DiGraph",
    "UndirectedGraph",
    "CSRGraph",
    "to_weighted_undirected",
]
