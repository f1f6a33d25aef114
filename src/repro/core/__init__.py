"""Spinner — the paper's primary contribution.

Two implementations of the same algorithm are provided:

* :class:`repro.core.spinner.SpinnerPartitioner` — the faithful Pregel
  implementation, organized in the supersteps described in Section IV of
  the paper (NeighborPropagation, NeighborDiscovery, Initialize,
  ComputeScores, ComputeMigrations) as
  :class:`repro.core.batch_program.BatchSpinnerProgram` and executed on
  the simulated Giraph cluster of :mod:`repro.pregel`.
* :class:`repro.core.fast.FastSpinner` — a vectorized NumPy implementation
  of the identical iteration (same score function, penalty, probabilistic
  migration and halting heuristic) used for large parameter sweeps.

Both share :class:`repro.core.config.SpinnerConfig` and produce results
carrying per-iteration quality history
(:class:`repro.core.halting.IterationRecord`), so any experiment can swap
one for the other.  Import each from its module: this package re-exports
nothing, so loading FastSpinner never loads the Pregel runtime.
"""
