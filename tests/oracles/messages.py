"""Message routing and combiners for the per-vertex reference engine.

Messages sent during superstep *S* are delivered at the beginning of
superstep *S + 1*, exactly as in Pregel.  A :class:`MessageCombiner` can
be installed to merge messages addressed to the same vertex before
delivery, which is how Giraph reduces network traffic for commutative
reductions (sum, min, ...).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from typing import Any, Callable


class MessageCombiner:
    """Combine two messages addressed to the same target vertex.

    Subclasses implement :meth:`combine`.  The engine applies the combiner
    eagerly as messages are enqueued, so at most one message per target is
    stored when a combiner is installed.
    """

    def combine(self, first: Any, second: Any) -> Any:
        """Return the combination of two messages."""
        raise NotImplementedError


class SumCombiner(MessageCombiner):
    """Adds messages together (numeric messages)."""

    def combine(self, first: Any, second: Any) -> Any:
        """Add the two messages."""
        return first + second


class MinCombiner(MessageCombiner):
    """Keeps the minimum message (numeric messages)."""

    def combine(self, first: Any, second: Any) -> Any:
        """Keep the smaller of the two messages."""
        return first if first <= second else second


class MessageStore:
    """Holds messages for the *next* superstep, keyed by target vertex."""

    def __init__(self, combiner: MessageCombiner | None = None) -> None:
        self._combiner = combiner
        self._messages: dict[int, list[Any]] = defaultdict(list)
        self.messages_enqueued = 0

    def send(self, target: int, message: Any) -> None:
        """Enqueue a message for delivery in the next superstep."""
        self.messages_enqueued += 1
        box = self._messages[target]
        if self._combiner is not None and box:
            box[0] = self._combiner.combine(box[0], message)
        else:
            box.append(message)

    def targets(self) -> set[int]:
        """Vertices that will receive at least one message."""
        return set(self._messages)

    def drop_targets(self, targets: Iterable[int]) -> None:
        """Discard all messages addressed to ``targets``.

        Used by the engine to drop messages sent to vertex ids that do not
        exist in the graph (it counts the dropped sends itself, at send
        time, so the count stays per-message even with a combiner).
        """
        for target in targets:
            self._messages.pop(target, None)

    def messages_for(self, target: int) -> list[Any]:
        """Messages addressed to ``target`` (empty list when none)."""
        return self._messages.get(target, [])

    def __len__(self) -> int:
        return sum(len(box) for box in self._messages.values())

    def is_empty(self) -> bool:
        """Whether no vertex has pending messages."""
        return not self._messages


def make_message_router(
    store: MessageStore, on_send: Callable[[int], None] | None = None
) -> Callable[[int, Any], None]:
    """Return a ``send(target, message)`` callable bound to a store.

    ``on_send`` is invoked with the target vertex id for every message,
    which the engine uses to attribute local/remote traffic to workers.
    """

    def send(target: int, message: Any) -> None:
        """Append (or eagerly combine) a message for ``target``."""
        if on_send is not None:
            on_send(target)
        store.send(target, message)

    return send
