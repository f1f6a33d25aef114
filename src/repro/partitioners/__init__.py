"""Baseline partitioners used in the paper's comparison (Table I).

All partitioners implement the :class:`repro.partitioners.base.Partitioner`
interface — ``partition_array`` takes a
:class:`~repro.graph.csr.CSRGraph` plus a number of partitions and returns
one ``int64`` label per vertex — so the experiment harness can swap them
freely:

* :class:`repro.partitioners.hashing.HashPartitioner` — Giraph's default
  hash partitioning, the baseline Spinner is designed to replace.
* :class:`repro.partitioners.random_part.RandomPartitioner` — uniformly
  random assignment (used to initialize Spinner and as a sanity baseline).
* :class:`repro.partitioners.ldg.LinearDeterministicGreedy` — the streaming
  heuristic of Stanton & Kliot (SIGKDD 2012).
* :class:`repro.partitioners.fennel.FennelPartitioner` — the streaming
  algorithm of Tsourakakis et al. (WSDM 2014).
* :class:`repro.partitioners.metis.MetisLikePartitioner` — a multilevel
  partitioner in the spirit of METIS (coarsen / initial partition / refine).
* :class:`repro.partitioners.wang.WangPartitioner` — the LPA-coarsening +
  METIS approach of Wang et al. (ICDE 2014), which balances on vertices.

Import each from its module, or build one by name with
:func:`repro.partitioners.registry.make_partitioner`, which imports only
the partitioner it builds; this package re-exports nothing.
"""
