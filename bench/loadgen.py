"""Single-threaded load generator for the service's JSON-lines protocol.

One :mod:`selectors` loop drives every connection, so the client costs
one CPU however many streams it runs (the benchmark host has two: one for
the server, one for the client).  A *stream* is a source of requests on
one connection:

* :class:`OpenLoop` sends request ``i`` when it is due, at
  ``start + i / rate``, whatever the backlog — independent users.  Its
  latency is timed from the due time, so a stall also counts against the
  requests that should have been sent during it, and the generator's own
  lateness (send time minus due time) is kept and reported.
* :class:`ClosedLoop` keeps at most ``window`` requests in flight and
  refills once no more than ``refill_at`` are outstanding — callers that
  each wait for their reply.  Its latency is timed from the send.

Responses arrive in request order on each connection (the protocol
guarantees it), so each line is matched to the oldest unanswered request.
"""

from __future__ import annotations

import gc
import math
import selectors
import socket
import time
from collections import deque
from collections.abc import Callable

#: Signature of a stream's request factory: index -> (request line, meta).
MakeRequest = Callable[[int], "tuple[bytes, object]"]


class Stream:
    """A request source bound to one connection of a :class:`Client`."""

    open_loop = False

    def __init__(
        self,
        connection: int,
        make: MakeRequest,
        on_response: Callable[[bytes, object, float], bool],
    ) -> None:
        self.connection = connection
        self.make = make
        self.on_response = on_response
        self.start = 0.0
        self.index = 0
        self.sent = 0
        self.answered = 0
        self.rejected = 0
        self.latencies: list[float] = []
        self.answered_at: list[float] = []

    def begin(self, start: float) -> None:
        self.start = start

    def next_due(self, now: float) -> float:
        raise NotImplementedError

    def take(self, now: float) -> list[tuple[bytes, object, float]]:
        """Requests to send now, each with its meta and due time."""
        raise NotImplementedError

    def answer(self, line: bytes, meta: object, due: float, received: float) -> None:
        self.answered += 1
        self.latencies.append(received - due)
        self.answered_at.append(received)
        if not self.on_response(line, meta, received):
            self.rejected += 1

    def _next(self, due: float) -> tuple[bytes, object, float]:
        payload, meta = self.make(self.index)
        self.index += 1
        self.sent += 1
        return payload, meta, due


class OpenLoop(Stream):
    """Requests due at ``start + i / rate``, sent when due."""

    open_loop = True

    def __init__(self, connection: int, rate: float, make: MakeRequest, on_response) -> None:
        super().__init__(connection, make, on_response)
        self.period = 1.0 / rate
        self.lags: list[float] = []

    def next_due(self, now: float) -> float:
        return self.start + self.index * self.period

    def take(self, now: float) -> list[tuple[bytes, object, float]]:
        batch = []
        due = self.start + self.index * self.period
        while due <= now:
            batch.append(self._next(due))
            self.lags.append(now - due)
            due = self.start + self.index * self.period
        return batch


class ClosedLoop(Stream):
    """At most ``window`` requests in flight, refilled at ``refill_at``."""

    def __init__(
        self, connection: int, window: int, refill_at: int, make: MakeRequest, on_response
    ) -> None:
        super().__init__(connection, make, on_response)
        self.window = window
        self.refill_at = refill_at
        self.outstanding = 0

    def next_due(self, now: float) -> float:
        return now if self.outstanding <= self.refill_at else math.inf

    def take(self, now: float) -> list[tuple[bytes, object, float]]:
        if self.outstanding > self.refill_at:
            return []
        batch = [self._next(now) for _ in range(self.window - self.outstanding)]
        self.outstanding = self.window
        return batch

    def answer(self, line: bytes, meta: object, due: float, received: float) -> None:
        self.outstanding -= 1
        super().answer(line, meta, due, received)


class _Connection:
    __slots__ = ("sock", "out", "inflight", "partial", "writing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.out: list[bytes] = []
        self.inflight: deque = deque()
        self.partial = b""
        self.writing = False


class Client:
    """Connections to one server, driven by :meth:`run` on this thread."""

    def __init__(self, host: str, port: int, connections: int, timeout: float = 10.0) -> None:
        # select() takes a microsecond timeout; epoll rounds it up to a whole
        # millisecond, which would make every open-loop send up to 1 ms late.
        self.selector = selectors.SelectSelector()
        self.connections: list[_Connection] = []
        try:
            for _ in range(connections):
                sock = socket.create_connection((host, port), timeout=timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setblocking(False)
                conn = _Connection(sock)
                self.connections.append(conn)
                self.selector.register(sock, selectors.EVENT_READ, conn)
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        for conn in self.connections:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.connections.clear()
        self.selector.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, streams: list[Stream], seconds: float, drain_seconds: float = 10.0) -> int:
        """Send for ``seconds``, then wait for the replies still outstanding.

        Returns the number of requests left unanswered after
        ``drain_seconds`` (which then stay in flight on their connection,
        so the caller should close the client).
        """
        # A collection of the client's own request pools would stall the
        # generator for milliseconds; nothing here creates reference cycles.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run(streams, seconds, drain_seconds)
        finally:
            if collecting:
                gc.enable()

    def _run(self, streams: list[Stream], seconds: float, drain_seconds: float) -> int:
        start = time.perf_counter()
        end = start + seconds
        for stream in streams:
            stream.begin(start)
        while True:
            now = time.perf_counter()
            sending = now < end
            if sending:
                for stream in streams:
                    batch = stream.take(now)
                    if batch:
                        conn = self.connections[stream.connection]
                        for payload, meta, due in batch:
                            conn.out.append(payload)
                            conn.inflight.append((stream, meta, due))
                        self._flush(conn)
            outstanding = sum(len(conn.inflight) for conn in self.connections)
            if not sending:
                if outstanding == 0 or now > end + drain_seconds:
                    return outstanding
                wake = end + drain_seconds
            else:
                wake = min(min(stream.next_due(now) for stream in streams), end)
            for key, mask in self.selector.select(max(0.0, wake - time.perf_counter())):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn)
                if mask & selectors.EVENT_READ:
                    self._receive(conn)

    def _flush(self, conn: _Connection) -> None:
        if conn.out:
            data = b"".join(conn.out)
            try:
                sent = conn.sock.send(data)
            except BlockingIOError:
                sent = 0
            conn.out = [data[sent:]] if sent < len(data) else []
        writing = bool(conn.out)
        if writing != conn.writing:
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
            self.selector.modify(conn.sock, events, conn)
            conn.writing = writing

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(1 << 20)
        except BlockingIOError:
            return
        if not data:
            raise ConnectionError("server closed the connection")
        received = time.perf_counter()
        lines = (conn.partial + data).split(b"\n")
        conn.partial = lines.pop()
        inflight = conn.inflight
        for line in lines:
            stream, meta, due = inflight.popleft()
            stream.answer(line, meta, due, received)
