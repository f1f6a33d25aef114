"""Graph substrate: CSR arrays, generators, datasets and change streams.

The Spinner paper operates on directed graphs loaded into Giraph and
converts them internally to weighted undirected graphs (Section III-A).
This subpackage provides the equivalent building blocks:

* :class:`repro.graph.csr.CSRGraph` — the compressed sparse row graph
  every partitioner, metric, experiment and the service runs on.
* :mod:`repro.graph.conversion` — the directed to weighted-undirected
  conversion of eq. (3) in the paper, over edge arrays.
* :mod:`repro.graph.io` and :mod:`repro.graph.mmap_store` — edge-list
  readers and the on-disk CSR store.
* :mod:`repro.graph.generators` — synthetic generators (Watts–Strogatz,
  Barabási–Albert, Erdős–Rényi, …).
* :mod:`repro.graph.datasets` — scaled-down proxies for the paper's
  real-world datasets (Table II).
* :mod:`repro.graph.dynamic` — edge-arrival streams for the dynamic
  repartitioning experiments (Figure 7).
* :mod:`repro.graph.delta_csr` — the serving layer's live graph: an
  immutable CSR base plus an append-only delta of arrived edges.

The dictionary graphs (:mod:`repro.graph.digraph`,
:mod:`repro.graph.undirected`) remain for the dict dataset view the
benchmark harness traces and for METIS's coarsening; nothing imports
them eagerly.
"""
