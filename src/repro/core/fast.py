"""Vectorized Spinner implementation.

The Pregel implementation in :mod:`repro.core.spinner` is faithful to the
paper's superstep structure but — being pure Python over per-vertex
dictionaries — it is only practical for graphs up to a few hundred
thousand edges.  The evaluation's larger parameter sweeps therefore use
:class:`FastSpinner`, a NumPy implementation of the *identical*
algorithm:

* the same weighted undirected representation (eq. 3),
* the same score function with the balance penalty (eq. 8),
* the same candidate selection with ties kept on the current label,
* the same probabilistic migration dampening ``r(l) / m(l)`` (eq. 14), and
* the same halting heuristic on the aggregate score (Section III-C).

The only intentional difference is that it has no notion of workers, so
the per-worker asynchronous load refinement of Section IV-A4 does not
apply; this corresponds to the purely synchronous variant discussed in the
paper and only affects convergence speed, not the reached quality (the
ablation benchmark quantifies this).

Performance architecture
------------------------

The kernel is incremental.  It exploits the paper's observation that
after an iteration only the vertices adjacent to *migrated* vertices see
their neighbourhood change.  The kernel keeps two matrices alive across
iterations:

* ``label_weight`` — the ``(n, k)`` histogram ``w(v, l)``, stored as
  ``int32`` when the weighted degrees allow it (histogram entries are
  bounded by the weighted degree), halving the memory traffic of the
  scoring pass, and
* ``q = label_weight / degree`` — a divide cache of the
  degree-normalized scores before the balance penalty.

After each migration step the adjacency lists of the migrants (the
*frontier*) are gathered in one shot, and exactly the ``2 x volume``
histogram entries that changed — ``(neighbour, old_label)`` and
``(neighbour, new_label)`` — are updated with one scatter-add, so the
per-iteration update cost is proportional to the frontier volume, not
to ``m``.  Because Spinner's capacity constraint (eq. 5) bounds the
load that may migrate per iteration, the frontier is a small fraction
of the graph throughout the run — and it collapses to near zero in
the converged and incremental-repartitioning regimes (Section III-D),
which is where the kernel shines.  The full pass (first iteration, or
whenever the frontier volume approaches ``2m``) uses a single
composite-key reduction instead of ``np.add.at``::

    np.bincount(source * k + labels[target], weights=w, minlength=n * k)

The balance penalty changes globally every iteration, so candidate
selection still scans all ``n`` rows; that scan streams ``q`` once in
L2-sized row blocks (the kernel is memory-bandwidth bound, so the
penalty subtraction, tie-biased ``argmax`` and candidate gathers all
run on a hot ~1 MiB buffer).  Rows of ``q`` are re-divided only when
their histogram row changed.

Byte-identical labels fall out of exactness, not luck: every
histogram entry is an exact small integer (sums of integer edge
weights), ``int -> float64`` conversion and elementwise division are
deterministic, and the blocked traversal performs the same scalar
operations as the full-matrix expressions of a dense reference kernel,
which rebuilds the histogram from scratch every iteration with one
``np.add.at`` scatter over all ``2m`` half-edges.  Both see bit-equal
scores and make identical decisions from the identical RNG stream; the
dense kernel is kept in the test suite as the oracle for the
equivalence suite and the speed benchmark
(``benchmarks/test_kernel_speed.py``).
"""

from __future__ import annotations

import shutil
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SpinnerConfig
from repro.core.elastic import resize_labels
from repro.core.halting import HaltingTracker
from repro.core.incremental import (
    Assignment,
    incremental_initial_labels,
    map_assignment_to_dense,
    place_least_loaded,
)
from repro.core.program import IterationRecord
from repro.errors import InvalidPartitionCountError, PartitioningError
from repro.graph.conversion import to_weighted_csr
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.undirected import UndirectedGraph

GraphLike = DiGraph | UndirectedGraph | CSRGraph


def _accumulate_histogram(
    csr: CSRGraph,
    labels: np.ndarray,
    num_partitions: int,
    chunk_half_edges: int,
    out: np.ndarray,
) -> np.ndarray:
    """Accumulate the ``(n, k)`` label-weight histogram chunk by chunk.

    Bit-exact with the single-pass builds (``np.add.at`` scatter or the
    composite-key ``bincount``) for every chunk size: each histogram cell
    is a sum of integer edge weights, every partial sum is an exact
    integer far below ``2**53``, and integer-valued ``float64`` addition
    (and the cast to an integer ``out`` dtype) is exact — so the
    accumulation order cannot change the result.  Peak extra memory is
    one chunk plus one chunk-range histogram slab.
    """
    k = num_partitions
    for v_lo, v_hi, src, tgt, w in csr.iter_edge_chunks(chunk_half_edges):
        hist = np.bincount(
            (src - v_lo) * k + labels[tgt],
            weights=w.astype(np.float64),
            minlength=(v_hi - v_lo) * k,
        ).reshape(v_hi - v_lo, k)
        out[v_lo:v_hi] += hist.astype(out.dtype, copy=False)
    return out


def _chunked_local_weight(
    csr: CSRGraph, labels: np.ndarray, chunk_half_edges: int
) -> float:
    """Sum the weights of intra-partition half-edges, one chunk at a time.

    Every chunk contribution is an exact integer, so the total equals the
    single-pass masked sum bit-for-bit regardless of chunk size.
    """
    total = 0.0
    for _, _, src, tgt, w in csr.iter_edge_chunks(chunk_half_edges):
        total += float(w[labels[src] == labels[tgt]].sum())
    return total


@dataclass
class FastSpinnerResult:
    """Outcome of a :class:`FastSpinner` run.

    ``labels`` is indexed by dense vertex id; :meth:`to_assignment` maps it
    back to the original vertex identifiers.
    """

    labels: np.ndarray
    num_partitions: int
    iterations: int
    history: list[IterationRecord] = field(default_factory=list)
    phi: float = 0.0
    rho: float = 1.0
    halted_by: str = "steady_state"
    total_messages: int = 0
    original_ids: np.ndarray | None = None

    def to_assignment(self) -> dict[int, int]:
        """Return the ``{original vertex id: partition}`` mapping."""
        ids = (
            self.original_ids
            if self.original_ids is not None
            else np.arange(self.labels.shape[0])
        )
        return {int(vertex): int(label) for vertex, label in zip(ids, self.labels)}


class FastSpinner:
    """Array-based Spinner for large parameter sweeps."""

    name = "spinner-fast"

    def __init__(self, config: SpinnerConfig | None = None) -> None:
        self.config = config if config is not None else SpinnerConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def partition(
        self,
        graph: GraphLike,
        num_partitions: int,
        initial_labels: np.ndarray | Mapping[int, int] | None = None,
        track_history: bool = True,
    ) -> FastSpinnerResult:
        """Partition ``graph`` into ``num_partitions`` parts.

        ``initial_labels`` may be a dense NumPy array (aligned with the CSR
        vertex order) or a mapping keyed by original vertex ids; when
        omitted every vertex starts with a uniformly random label.
        """
        if num_partitions <= 0:
            raise InvalidPartitionCountError(num_partitions, "must be positive")
        csr = self._to_csr(graph)
        if self.config.storage == "mmap" and csr.storage != "mmap":
            return self._partition_spilled(
                csr, num_partitions, initial_labels, track_history
            )
        labels = self._resolve_initial_labels(csr, num_partitions, initial_labels)
        return self._run(csr, num_partitions, labels, track_history)

    def _partition_spilled(
        self,
        csr: CSRGraph,
        num_partitions: int,
        initial_labels: np.ndarray | Mapping[int, int] | None,
        track_history: bool,
    ) -> FastSpinnerResult:
        """Spill an in-RAM graph to an on-disk store and run out-of-core.

        Used when ``config.storage == "mmap"`` but the input is not
        already an opened store: the CSR arrays are written to
        ``config.storage_dir`` (a temporary directory when unset, removed
        afterwards) and the kernels then stream from the mapping.  Graphs
        that are already :class:`~repro.graph.mmap_store.MmapCSRGraph`
        skip this and stream directly.
        """
        from repro.graph.mmap_store import open_store, save_csr

        directory = self.config.storage_dir
        cleanup = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="spinner-store-")
        try:
            save_csr(csr, directory, self._storage_chunk())
            with open_store(directory) as store:
                labels = self._resolve_initial_labels(
                    store, num_partitions, initial_labels
                )
                return self._run(store, num_partitions, labels, track_history)
        finally:
            if cleanup:
                shutil.rmtree(directory, ignore_errors=True)

    def _storage_chunk(self) -> int:
        """Half-edges per streamed chunk for the out-of-core kernels."""
        if self.config.storage_chunk is not None:
            return self.config.storage_chunk
        from repro.graph.mmap_store import DEFAULT_STORAGE_CHUNK

        return DEFAULT_STORAGE_CHUNK

    def adapt_to_graph_changes(
        self,
        graph: GraphLike,
        previous_assignment: Assignment,
        num_partitions: int,
        track_history: bool = True,
    ) -> FastSpinnerResult:
        """Incremental repartitioning after graph changes (Section III-D).

        ``previous_assignment`` is a ``{vertex: partition}`` mapping or a
        sorted ``(ids, labels)`` array pair.  It is mapped straight onto
        the CSR vertex order (no dictionary round-trip); vertices new to
        the graph go to the least loaded partition before label
        propagation restarts.
        """
        csr = self._to_csr(graph)
        initial = incremental_initial_labels(csr, previous_assignment, num_partitions)
        return self.partition(csr, num_partitions, initial_labels=initial,
                              track_history=track_history)

    def adapt_to_partition_change(
        self,
        graph: GraphLike,
        previous_assignment: Mapping[int, int],
        old_num_partitions: int,
        new_num_partitions: int,
        track_history: bool = True,
    ) -> FastSpinnerResult:
        """Elastic repartitioning after a change in ``k`` (Section III-E).

        The previous labels are resized with the vectorized eq. (11)
        draws; vertices missing from the previous assignment are placed on
        the least loaded partition afterwards.
        """
        csr = self._to_csr(graph)
        labels, found = map_assignment_to_dense(
            csr, previous_assignment, old_num_partitions
        )
        if found.any():
            labels[found] = resize_labels(
                labels[found],
                old_num_partitions,
                new_num_partitions,
                seed=self.config.seed,
            )
        place_least_loaded(labels, ~found, csr.weighted_degrees, new_num_partitions)
        return self.partition(
            csr, new_num_partitions, initial_labels=labels, track_history=track_history
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _to_csr(self, graph: GraphLike) -> CSRGraph:
        if isinstance(graph, CSRGraph):
            return graph
        if isinstance(graph, DiGraph):
            return to_weighted_csr(graph, self.config.direction_aware)
        return CSRGraph.from_undirected(graph)

    def _resolve_initial_labels(
        self,
        csr: CSRGraph,
        num_partitions: int,
        initial_labels: np.ndarray | Mapping[int, int] | None,
    ) -> np.ndarray:
        n = csr.num_vertices
        if initial_labels is None:
            rng = np.random.default_rng(self.config.seed)
            return rng.integers(num_partitions, size=n).astype(np.int64)
        if isinstance(initial_labels, Mapping):
            labels, found = map_assignment_to_dense(csr, initial_labels, num_partitions)
            if not found.all():
                vertex = int(csr.original_ids[np.argmax(~found)])
                raise PartitioningError(f"initial labels miss vertex {vertex!r}")
        else:
            labels = np.asarray(initial_labels, dtype=np.int64).copy()
            if labels.shape[0] != n:
                raise PartitioningError(
                    f"initial label array has {labels.shape[0]} entries for {n} vertices"
                )
        if labels.size and (labels.min() < 0 or labels.max() >= num_partitions):
            raise PartitioningError("initial labels outside [0, num_partitions)")
        return labels

    def _run(
        self,
        csr: CSRGraph,
        num_partitions: int,
        labels: np.ndarray,
        track_history: bool,
    ) -> FastSpinnerResult:
        """Incremental kernel: frontier-sized delta updates between full passes.

        See the module docstring ("Performance architecture") for the
        invariants; every arithmetic step mirrors the dense reference
        kernel bit-for-bit, so both return identical results for the
        same seed.  Scoring streams the histogram once per iteration in
        L2-sized row blocks instead of materializing the full
        ``(n, k)`` score matrix — this kernel is memory-bandwidth bound,
        and the blocked pass keeps the divide/penalty/argmax traffic in
        cache.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        n = csr.num_vertices
        k = num_partitions
        indptr = csr.indptr
        half_edges = int(indptr[-1])
        stream = csr.storage == "mmap"
        if stream:
            # Out-of-core: never materialize a full-edge array.  The full
            # pass streams chunks, the delta path gathers only the
            # frontier's half-edges from the mapping (and releases the
            # touched pages), and phi sums chunk-wise — all exact.
            chunk = self._storage_chunk()
            sources = targets = weights_f = None
        else:
            sources, targets, weights = csr.edge_array()
            weights_f = weights.astype(np.float64)
            source_keys = sources * k
        degrees = csr.weighted_degrees_f
        safe_degrees = np.where(degrees > 0, degrees, 1.0)
        total_load = float(degrees.sum())
        capacity = config.capacity(total_load, k) if total_load else 1.0
        vertex_degrees = np.diff(indptr)

        tracker = HaltingTracker(threshold=config.halt_threshold, window=config.halt_window)
        history: list[IterationRecord] = []
        halted_by = "max_iterations"
        total_messages = half_edges

        # Histogram entries are bounded by the weighted degree, so they
        # normally fit int32 — half the memory traffic of float64 on the
        # bandwidth-bound scoring pass, while int -> float64 conversion
        # stays exact (so scores match the dense kernel bit-for-bit).
        max_degree = int(csr.weighted_degrees.max()) if n else 0
        hist_dtype = np.int32 if max_degree < np.iinfo(np.int32).max else np.float64
        weights_h = None if stream else weights.astype(hist_dtype)

        if stream:
            def local_weight_fn(current_labels: np.ndarray) -> float:
                return _chunked_local_weight(csr, current_labels, chunk)
        else:
            # Reused every iteration: fresh ~2m-sized temporaries would be
            # returned to the OS and faulted back in on each call.
            source_labels = np.empty(half_edges, dtype=np.int64)
            target_labels = np.empty(half_edges, dtype=np.int64)
            local_mask = np.empty(half_edges, dtype=bool)

            def local_weight_fn(current_labels: np.ndarray) -> float:
                np.take(current_labels, sources, out=source_labels, mode="clip")
                np.take(current_labels, targets, out=target_labels, mode="clip")
                np.equal(source_labels, target_labels, out=local_mask)
                return float(weights_f[local_mask].sum())

        # Persistent kernel state (see module docstring).
        label_weight: np.ndarray | None = None  # (n, k) histogram
        q = np.empty((n, k), dtype=np.float64)  # divide cache: histogram / degree
        # A delta pays for two composite keys per frontier half-edge; fall
        # back to the single full-pass bincount before that exceeds 2m keys.
        rebuild_volume = max(half_edges // 2, 1)
        # (migrant ids, their pre-migration labels) awaiting folding in.
        pending: tuple[np.ndarray, np.ndarray] | None = None

        # Blocked scoring state: ~1 MiB score buffer so each block stays
        # resident in L2 across divide / penalty / bias / argmax.
        block_rows = max(1, min(n, 131072 // max(k, 1)))
        block_scores = np.empty((block_rows, k), dtype=np.float64)
        block_range = np.arange(block_rows)
        best = np.empty(n, dtype=np.int64)
        best_scores = np.empty(n, dtype=np.float64)
        current_scores = np.empty(n, dtype=np.float64)

        iterations_run = 0
        for iteration in range(config.max_iterations):
            iterations_run = iteration + 1

            # --- maintain the histogram and its divide cache -----------
            refresh_full = False
            if label_weight is None:
                # Full pass: composite-key reduction over all half-edges.
                if stream:
                    label_weight = np.zeros((n, k), dtype=hist_dtype)
                    _accumulate_histogram(csr, labels, k, chunk, label_weight)
                else:
                    label_weight = (
                        np.bincount(
                            source_keys + labels[targets],
                            weights=weights_f,
                            minlength=n * k,
                        )
                        .astype(hist_dtype, copy=False)
                        .reshape(n, k)
                    )
                refresh_full = True
            elif pending is not None:
                migrants, old_labels = pending
                frontier = vertex_degrees[migrants]
                volume = int(frontier.sum())
                if volume:
                    touched = np.zeros(n, dtype=bool)
                    if stream:
                        # Split the migrants so each block's frontier is at
                        # most ~chunk half-edges: the delta temporaries stay
                        # O(chunk) instead of O(frontier).  The scatter-adds
                        # are exact integer sums, so the block order cannot
                        # change the histogram.
                        cum = np.cumsum(frontier)
                        bounds = [0]
                        while bounds[-1] < migrants.shape[0]:
                            a = bounds[-1]
                            base = int(cum[a - 1]) if a else 0
                            b = int(np.searchsorted(cum, base + chunk, side="right"))
                            bounds.append(max(b, a + 1))
                    else:
                        bounds = [0, migrants.shape[0]]
                    for a, b in zip(bounds[:-1], bounds[1:]):
                        block_migrants = migrants[a:b]
                        block_frontier = frontier[a:b]
                        offsets = np.cumsum(block_frontier) - block_frontier
                        positions = np.arange(
                            int(block_frontier.sum()), dtype=np.int64
                        ) + np.repeat(indptr[block_migrants] - offsets, block_frontier)
                        if stream:
                            # Gather only the block's half-edges off the
                            # mapping (fancy indexing copies into RAM), then
                            # drop the pages the gather touched.
                            neighbours = np.asarray(csr.indices[positions])
                            moved_weights = np.asarray(csr.weights[positions]).astype(
                                hist_dtype
                            )
                            csr.release_pages()
                        else:
                            neighbours = targets[positions]
                            moved_weights = weights_h[positions]
                        neighbour_keys = neighbours * k
                        # Scatter-add only the 2 * volume histogram entries
                        # that actually change: (neighbour, old) loses the
                        # edge weight, (neighbour, new) gains it.  Unbuffered
                        # np.add.at is slow per element but the element count
                        # here is the frontier volume, not m.
                        np.add.at(
                            label_weight.reshape(-1),
                            np.concatenate(
                                [
                                    neighbour_keys
                                    + np.repeat(old_labels[a:b], block_frontier),
                                    neighbour_keys
                                    + np.repeat(labels[block_migrants], block_frontier),
                                ]
                            ),
                            np.concatenate([-moved_weights, moved_weights]),
                        )
                        touched[neighbours] = True
                    # Refresh the divide cache for the touched rows only;
                    # if most rows changed, a streaming per-block refresh
                    # is cheaper than the scattered row update.
                    rows = np.flatnonzero(touched)
                    if rows.shape[0] > n // 4:
                        refresh_full = True
                    else:
                        q[rows] = label_weight[rows] / safe_degrees[rows, None]
            pending = None

            # --- ComputeScores (blocked) -------------------------------
            loads = np.bincount(labels, weights=degrees, minlength=k).astype(np.float64)
            if config.balance_penalty and capacity > 0:
                penalties = loads / capacity
            else:
                penalties = np.zeros(k, dtype=np.float64)

            for start in range(0, n, block_rows):
                stop = min(start + block_rows, n)
                rows_in_block = stop - start
                scores = block_scores[:rows_in_block]
                if refresh_full:
                    np.divide(
                        label_weight[start:stop],
                        safe_degrees[start:stop, None],
                        out=q[start:stop],
                    )
                np.subtract(q[start:stop], penalties[None, :], out=scores)
                block_index = block_range[:rows_in_block]
                block_labels = labels[start:stop]
                current = scores[block_index, block_labels]
                current_scores[start:stop] = current
                block_best = np.argmax(scores, axis=1)
                if config.prefer_current_label:
                    # Branchless equivalent of biasing the current label by
                    # 1e-9 before the argmax: the current label wins when
                    # its biased score beats the row maximum, and on an
                    # exact biased tie the smaller index wins (argmax
                    # takes the first maximum).
                    row_max = scores[block_index, block_best]
                    biased_current = current + 1e-9
                    block_best = np.where(
                        biased_current > row_max,
                        block_labels,
                        np.where(
                            biased_current == row_max,
                            np.minimum(block_best, block_labels),
                            block_best,
                        ),
                    )
                best[start:stop] = block_best
                best_scores[start:stop] = scores[block_index, block_best]

            is_candidate = (best != labels) & (best_scores > current_scores + 1e-12)

            # --- ComputeMigrations --------------------------------------
            if is_candidate.any():
                candidate_load = np.bincount(
                    best[is_candidate], weights=degrees[is_candidate], minlength=k
                ).astype(np.float64)
                remaining = capacity - loads
                if config.probabilistic_migration:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        probabilities = np.where(
                            candidate_load > 0,
                            np.clip(remaining, 0.0, None) / candidate_load,
                            1.0,
                        )
                    probabilities = np.clip(probabilities, 0.0, 1.0)
                else:
                    probabilities = np.ones(k, dtype=np.float64)
                draws = rng.random(n)
                migrate = is_candidate & (draws < probabilities[best])
            else:
                migrate = np.zeros(n, dtype=bool)

            migrations = int(migrate.sum())
            if migrations:
                migrants = np.flatnonzero(migrate)
                old_labels = labels[migrants].copy()
                labels[migrants] = best[migrants]
                frontier_volume = int(vertex_degrees[migrants].sum())
                total_messages += frontier_volume
                if 2 * frontier_volume >= rebuild_volume:
                    label_weight = None  # next iteration does a full pass
                else:
                    pending = (migrants, old_labels)

            # --- bookkeeping & halting ----------------------------------
            score_value = float(current_scores.sum())
            if track_history:
                local_weight = local_weight_fn(labels)
                phi = local_weight / total_load if total_load else 1.0
                post_loads = np.bincount(labels, weights=degrees, minlength=k)
                ideal = total_load / k
                rho = float(post_loads.max() / ideal) if total_load else 1.0
                history.append(
                    IterationRecord(
                        iteration=iteration,
                        phi=phi,
                        rho=rho,
                        score=score_value,
                        migrations=migrations,
                    )
                )

            if tracker.update(score_value):
                halted_by = "steady_state"
                break

        return self._finalize(
            csr, num_partitions, labels, degrees, total_load, iterations_run,
            history, halted_by, total_messages, local_weight_fn(labels),
        )

    def _finalize(
        self,
        csr: CSRGraph,
        num_partitions: int,
        labels: np.ndarray,
        degrees: np.ndarray,
        total_load: float,
        iterations_run: int,
        history: list[IterationRecord],
        halted_by: str,
        total_messages: int,
        local_weight: float,
    ) -> FastSpinnerResult:
        """Final quality metrics of a finished run."""
        phi = local_weight / total_load if total_load else 1.0
        final_loads = np.bincount(labels, weights=degrees, minlength=num_partitions)
        ideal = total_load / num_partitions
        rho = float(final_loads.max() / ideal) if total_load else 1.0

        return FastSpinnerResult(
            labels=labels,
            num_partitions=num_partitions,
            iterations=iterations_run,
            history=history,
            phi=phi,
            rho=rho,
            halted_by=halted_by,
            total_messages=total_messages,
            original_ids=csr.original_ids,
        )
