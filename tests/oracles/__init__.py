"""Reference implementations the production code is pinned against.

Each module is a simple, slow implementation of something ``src/`` runs
in a faster form; the equivalence suites and the speed benchmarks import
it from here and assert bit-exact agreement:

* :mod:`oracles.engine` (with :mod:`oracles.vertex`,
  :mod:`oracles.messages`, :mod:`oracles.program` and
  :mod:`oracles.worker`) — the per-vertex Pregel engine, reference for
  :class:`~repro.pregel.vector_coordinator.VectorPregelEngine`;
* :mod:`oracles.apps` — the per-vertex applications, reference for
  :mod:`repro.apps`;
* :mod:`oracles.spinner` — the per-vertex Spinner program, reference for
  :class:`~repro.core.batch_program.BatchSpinnerProgram`;
* :mod:`oracles.dense_kernel` — FastSpinner's dense kernel, reference for
  its frontier kernel.

Nothing under ``src/`` imports this package.  The oracles run
uninterrupted only: they neither checkpoint nor inject faults.
"""
