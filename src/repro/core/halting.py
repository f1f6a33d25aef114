"""Halting heuristic (paper Section III-C).

Spinner halts when the aggregate partitioning score has not improved by
more than a threshold ``epsilon`` for ``w`` consecutive iterations.  Both
Spinner implementations (Pregel and vectorized) feed their per-iteration
score into a :class:`HaltingTracker` and stop when it reports a steady
state; both record each iteration's quality as an
:class:`IterationRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IterationRecord:
    """Quality metrics of one label-propagation iteration."""

    iteration: int
    phi: float
    rho: float
    score: float
    migrations: int = 0


@dataclass
class HaltingTracker:
    """Tracks score improvements and detects the steady state.

    Parameters
    ----------
    threshold:
        Minimum *relative* improvement over the best score seen so far that
        counts as progress (the paper's ``epsilon``).
    window:
        Number of consecutive non-improving iterations required to halt
        (the paper's ``w``).
    """

    threshold: float = 0.001
    window: int = 5
    _best_score: float | None = field(default=None, init=False)
    _stale_iterations: int = field(default=0, init=False)
    _history: list[float] = field(default_factory=list, init=False)

    @property
    def history(self) -> list[float]:
        """Scores observed so far, in order."""
        return list(self._history)

    @property
    def stale_iterations(self) -> int:
        """Consecutive iterations without significant improvement."""
        return self._stale_iterations

    def update(self, score: float) -> bool:
        """Record the score of one iteration.

        Returns ``True`` when the steady state has been reached, i.e. the
        score has failed to improve by more than ``threshold`` (relative to
        the best score's magnitude) for ``window`` consecutive iterations.
        """
        self._history.append(score)
        if self._best_score is None:
            self._best_score = score
            self._stale_iterations = 0
            return False
        scale = max(abs(self._best_score), 1e-12)
        improvement = (score - self._best_score) / scale
        if improvement > self.threshold:
            self._best_score = score
            self._stale_iterations = 0
        else:
            self._stale_iterations += 1
        return self._stale_iterations >= self.window

    def reset(self) -> None:
        """Forget all history (used when the graph or k changes)."""
        self._best_score = None
        self._stale_iterations = 0
        self._history.clear()
