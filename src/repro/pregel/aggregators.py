"""Pregel aggregators.

Aggregators provide the only global communication channel in the Pregel
model: every vertex may contribute a value during a superstep, the values
are reduced with a commutative and associative operator, and the reduced
value becomes visible to all vertices *in the following superstep* (and to
the master compute immediately after the superstep).

Spinner uses aggregators for the partition load counters ``b(l)``, the
migration-candidate counters ``m(l)`` and the global score (paper
Section IV-A5).  Giraph shards aggregators across workers for scalability;
in this single-process simulation sharding only matters for the cost
model, which charges aggregator traffic to the owning worker.
"""

from __future__ import annotations

from typing import Any

from repro.errors import AggregatorError


class Aggregator:
    """Base class for aggregators.

    Subclasses define :attr:`neutral` and :meth:`reduce`.  ``persistent``
    aggregators keep their value across supersteps (Giraph semantics for
    "persistent aggregators"); non-persistent ones reset to the neutral
    element at the start of every superstep.
    """

    #: Neutral element of the reduction.
    neutral: Any = None

    def __init__(self, persistent: bool = False) -> None:
        self.persistent = persistent
        self._current = self.neutral
        self._previous = self.neutral

    def reduce(self, left: Any, right: Any) -> Any:
        """Combine two values; must be commutative and associative."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def aggregate(self, value: Any) -> None:
        """Contribute ``value`` to the current superstep's reduction."""
        self._current = self.reduce(self._current, value)

    def set(self, value: Any) -> None:
        """Overwrite the current value (master-compute only)."""
        self._current = value

    @property
    def value(self) -> Any:
        """Value reduced during the *previous* superstep."""
        return self._previous

    def advance_superstep(self) -> None:
        """Publish the current value and reset for the next superstep."""
        self._previous = self._current
        if not self.persistent:
            self._current = self.neutral


class LongSumAggregator(Aggregator):
    """Integer sum aggregator."""

    neutral = 0

    def reduce(self, left: int, right: int) -> int:
        """Integer addition."""
        return left + right


class DoubleSumAggregator(Aggregator):
    """Floating-point sum aggregator."""

    neutral = 0.0

    def reduce(self, left: float, right: float) -> float:
        """Floating-point addition."""
        return left + right


class MaxAggregator(Aggregator):
    """Maximum aggregator (neutral element ``-inf``)."""

    neutral = float("-inf")

    def reduce(self, left: float, right: float) -> float:
        """Keep the larger value."""
        return left if left >= right else right


class MinAggregator(Aggregator):
    """Minimum aggregator (neutral element ``+inf``)."""

    neutral = float("inf")

    def reduce(self, left: float, right: float) -> float:
        """Keep the smaller value."""
        return left if left <= right else right


class AggregatorRegistry:
    """Named collection of aggregators shared by vertices and the master."""

    def __init__(self) -> None:
        self._aggregators: dict[str, Aggregator] = {}

    def register(self, name: str, aggregator: Aggregator, allow_existing: bool = False) -> None:
        """Register an aggregator under ``name``.

        Re-registering an existing name raises :class:`AggregatorError`
        unless ``allow_existing`` is set (in which case the existing
        aggregator is kept, matching Giraph's idempotent registration).
        """
        if name in self._aggregators:
            if allow_existing:
                return
            raise AggregatorError(f"aggregator {name!r} is already registered")
        self._aggregators[name] = aggregator

    def __contains__(self, name: str) -> bool:
        return name in self._aggregators

    def get(self, name: str) -> Aggregator:
        """Return the aggregator registered under ``name``."""
        try:
            return self._aggregators[name]
        except KeyError:
            raise AggregatorError(f"aggregator {name!r} is not registered") from None

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the named aggregator."""
        self.get(name).aggregate(value)

    def value(self, name: str) -> Any:
        """Previous-superstep value of the named aggregator."""
        return self.get(name).value

    def names(self) -> list[str]:
        """Registered aggregator names (sorted for reproducibility)."""
        return sorted(self._aggregators)

    def advance_superstep(self) -> None:
        """Publish all aggregator values for the next superstep."""
        for aggregator in self._aggregators.values():
            aggregator.advance_superstep()
