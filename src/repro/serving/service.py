"""Asyncio lookup front end of the online sharding service.

A long-running, stdlib-only TCP server speaking a line-delimited JSON
protocol: every request is one JSON object on one line, every response
one JSON object on one line.  Operations:

``{"op": "lookup", "vertex": 7}``
    Single vertex→partition query; the response carries the snapshot
    ``version`` it was answered from, the ``partition`` and a
    ``fallback`` flag (hash placement for vertices born after the
    snapshot).
``{"op": "lookup", "vertices": [7, 8, 9]}``
    Batched query: ``partitions`` (aligned list) and ``fallbacks`` (the
    indices answered by the hash fallback), all from one snapshot — a
    batch can never straddle a version swap.
``{"op": "lookup_batch", "vertices": [7, 8, 9]}``
    Explicit name for the batched query above (``vertices`` required);
    same vectorized path, same response shape.
``{"op": "ingest", "edges": [[u, v], [u, v, w], ...], "vertices": [...]}``
    Feed a churn delta into the pipeline; may trigger a background
    repartition (the response says whether one was started or running).
    The whole delta is validated first (non-negative integer ids,
    positive integer weights): a bad one gets an error response and
    changes nothing.
``{"op": "stats"}``
    Counters, gauges, latency quantiles and pipeline signals
    (pending edges, estimated phi, in-flight flag, last migration
    report, failed background repartitions and the latest error).
``{"op": "quality"}``
    Exact ``phi``/``rho`` of the current snapshot on the live graph (an
    O(edges) pass — the ``stats`` gauges are the cheap alternative).
``{"op": "version"}``
    The current snapshot version (cheapest liveness probe).
``{"op": "wait_version", "version": N, "timeout": 5.0}``
    Block until the store reaches version ``N`` (deterministic CI
    smoke: ingest a burst, then wait for the swap).
``{"op": "shutdown"}``
    Acknowledge, then stop the server cleanly.

Lookups are answered on the event loop directly from the current
:class:`~repro.serving.store.AssignmentSnapshot`; repartitions run in a
worker thread via :meth:`ChurnPipeline.execute` (NumPy releases the GIL
for the heavy kernels), so the loop — and therefore lookup latency —
never blocks on repartitioning.  The only loop-side repartition work is
the O(1) graph freeze (it records the live graph's CSR base and delta
length; the merge into new arrays runs in the worker thread) and the
O(1) snapshot swap.

**Pipelining.**  The connection handler drains every request line a
client already sent (up to ``max_pipeline_batch``) before replying,
answers the whole batch, and writes all responses with one
``writer.write`` + one ``drain()`` instead of one round trip per
request.  Consecutive single-vertex ``lookup`` requests inside a batch
are fused into one vectorized
:meth:`~repro.serving.store.AssignmentSnapshot.lookup_many` against a
*single* snapshot reference — consistent because those requests were
already concurrently in flight, so any serialization of them against a
racing publish is admissible, and one snapshot per batch is exactly the
guarantee the batched ``lookup`` op already gives.  Responses stay in
request order and byte-identical to the per-request output; a
sequential request/response client observes no behavioural change.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import time

import numpy as np

from repro.errors import ReproError, ServingError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import GraphDelta
from repro.serving.churn import ChurnPipeline, ServingConfig
from repro.serving.metrics import ServingMetrics
from repro.serving.store import AssignmentStore

logger = logging.getLogger("repro.serving")

#: StreamReader line limit — batched lookups of ~100k vertices fit.
_LINE_LIMIT = 1 << 22

#: Largest value an ``int64`` vertex id or edge weight can hold.
_INT64_MAX = 2**63 - 1

#: Exceptions a request is allowed to fail with (rendered as an error
#: response instead of killing the connection).  ``ReproError`` covers
#: every library error (``ServingError`` included).
_REQUEST_ERRORS = (json.JSONDecodeError, ReproError, ValueError, TypeError)


def _encode(response: dict) -> bytes:
    """Serialize one response as a JSON line (the wire format)."""
    return json.dumps(response).encode("utf-8") + b"\n"


async def _read_request_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line, ``b""`` at EOF, or ``None`` if over-long.

    A line longer than ``_LINE_LIMIT`` is discarded through its newline,
    also when the rest of it has not arrived yet, so its tail is never
    parsed as a request of its own; the caller answers it with one error.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    # The over-long bytes stay buffered: drop them and keep reading
    # until the line's newline has been consumed too.
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def _is_single_lookup(payload: dict) -> bool:
    """Whether a request takes the single-vertex lookup path (fusable)."""
    return payload.get("op") == "lookup" and "vertex" in payload


def _wire_int(value, what: str, minimum: int) -> int:
    """An integer field of a request, in ``[minimum, 2**63 - 1]``.

    JSON numbers with a fractional part, booleans and strings are
    refused rather than truncated or coerced; the upper bound keeps the
    value representable in the ``int64`` arrays it ends up in.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServingError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ServingError(f"{what} must be an integer, got {value!r}")
    if not minimum <= value <= _INT64_MAX:
        raise ServingError(
            f"{what} must lie in [{minimum}, {_INT64_MAX}], got {value!r}"
        )
    return int(value)


def _parse_delta(payload: dict) -> GraphDelta:
    """Build a :class:`GraphDelta` from an ``ingest`` request payload.

    The whole delta is validated before anything is applied: vertex ids
    must be non-negative integers and weights positive integers, so a bad
    request leaves the live graph and the churn signals untouched.
    """
    delta = GraphDelta()
    for vertex in payload.get("vertices", []):
        delta.added_vertices.add(_wire_int(vertex, "vertex id", 0))
    for edge in payload.get("edges", []):
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise ServingError(f"edges must be [u, v] or [u, v, w], got {edge!r}")
        u = _wire_int(edge[0], "vertex id", 0)
        v = _wire_int(edge[1], "vertex id", 0)
        weight = _wire_int(edge[2], "edge weight", 1) if len(edge) == 3 else 1
        delta.added_edges.append((u, v, weight))
    return delta


class ShardingService:
    """The serving layer: store + churn pipeline + metrics + TCP front end.

    Parameters
    ----------
    graph:
        The initial weighted undirected graph as CSR arrays; churn
        ingestion grows the pipeline's live graph on top of it and never
        mutates these arrays.
    config:
        Service knobs (:class:`~repro.serving.churn.ServingConfig`).
    warm_start:
        Optional partitioning file written by
        :meth:`~repro.serving.store.AssignmentStore.save` (or any
        :mod:`repro.graph.io` partitioning writer); when given, the
        service starts serving it as version 1 without running the
        partitioner.  Otherwise the initial partitioning is computed at
        construction time (version 1).
    host / port:
        Listen address; port 0 binds an ephemeral port (read
        :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: ServingConfig,
        *,
        warm_start: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.config = config
        self.host = host
        self.port = port
        self.metrics = ServingMetrics(sample_every=config.latency_sample_every)
        self.store = AssignmentStore(config.num_partitions)
        self.pipeline = ChurnPipeline(graph, self.store, config, self.metrics)
        self.last_report = None
        #: Background repartitions that raised, and the latest error
        #: (``"ExceptionType: message"``); lookups keep answering from
        #: the last published snapshot after a failure.
        self.repartition_failures = 0
        self.last_repartition_error: str | None = None
        if warm_start is not None:
            snapshot = self.store.warm_start(warm_start)
            self.pipeline.rebase(snapshot)
        else:
            self.last_report = self.pipeline.bootstrap()
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._version_cond: asyncio.Condition | None = None
        self._repartition_task: asyncio.Task | None = None
        self._log_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the background tasks."""
        self._stopped = asyncio.Event()
        self._version_cond = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.log_interval > 0:
            self._log_task = asyncio.create_task(self._periodic_log())
        logger.info("listening on %s:%d", self.host, self.port)

    async def stop(self) -> None:
        """Stop the listener and wait for an in-flight repartition."""
        if self._log_task is not None:
            self._log_task.cancel()
            self._log_task = None
        if self._repartition_task is not None:
            await asyncio.shield(self._repartition_task)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._stopped is not None:
            self._stopped.set()

    async def serve_forever(self, ready=None) -> None:
        """Start and run until a ``shutdown`` request (or cancellation).

        ``ready``, when given, is called with the service once the
        listener is bound — the CLI uses it to print the resolved
        ephemeral port before blocking.
        """
        await self.start()
        if ready is not None:
            ready(self)
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        max_batch = self.config.max_pipeline_batch
        # The StreamReader's internal buffer: re-checked after every
        # readline, so "a full line is already buffered" is answered
        # without yielding to the network.  Absent attribute (foreign
        # reader implementation) degrades to request-per-response.
        buffered = getattr(reader, "_buffer", None)
        try:
            while True:
                line = await _read_request_line(reader)
                if line == b"":
                    break
                lines = [line]
                if buffered is not None:
                    while len(lines) < max_batch and b"\n" in buffered:
                        lines.append(await _read_request_line(reader))
                stop_after = await self._respond_batch(lines, writer)
                if stop_after:
                    assert self._stopped is not None
                    self._stopped.set()
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond_batch(
        self, lines: list[bytes | None], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one drained batch with a single coalesced write.

        Responses are serialized into one buffer in request order;
        consecutive single-vertex lookups are answered by one vectorized
        call against one snapshot.  A ``shutdown`` mid-batch stops
        processing after its acknowledgement, exactly like the
        per-request loop (which would never read the later lines).
        """
        self.metrics.observe_pipeline(len(lines))
        parsed = [self._parse_line(line) for line in lines]
        chunks: list[bytes] = []
        stop_after = False
        index = 0
        while index < len(parsed):
            payload, error = parsed[index]
            if error is not None:
                chunks.append(_encode(error))
                index += 1
                continue
            if _is_single_lookup(payload):
                end = index + 1
                while (
                    end < len(parsed)
                    and parsed[end][1] is None
                    and _is_single_lookup(parsed[end][0])
                ):
                    end += 1
                if end == index + 1:
                    chunks.append(self._encode_single_lookup(payload))
                else:
                    chunks.extend(
                        self._fused_lookup_run(
                            [item[0] for item in parsed[index:end]]
                        )
                    )
                index = end
                continue
            if payload.get("op") == "wait_version" and chunks:
                # Flush finished responses before an op that may block for
                # a long time, so the client is not starved of them.
                writer.write(b"".join(chunks))
                await writer.drain()
                chunks = []
            response, stop_after = await self._dispatch_safe(payload)
            chunks.append(_encode(response))
            index += 1
            if stop_after:
                break
        if chunks:
            writer.write(b"".join(chunks))
            await writer.drain()
        return stop_after

    @staticmethod
    def _parse_line(line: bytes | None) -> tuple[dict | None, dict | None]:
        """Decode one request line into ``(payload, error_response)``.

        ``None`` stands for a line that exceeded ``_LINE_LIMIT`` and was
        discarded unread.
        """
        if line is None:
            return None, {
                "ok": False,
                "error": f"request line exceeds {_LINE_LIMIT} bytes",
            }
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ServingError("request must be a JSON object")
            return payload, None
        except _REQUEST_ERRORS as exc:
            return None, {"ok": False, "error": str(exc)}

    async def _dispatch_safe(self, payload: dict) -> tuple[dict, bool]:
        try:
            return await self._dispatch(payload)
        except _REQUEST_ERRORS as exc:
            return {"ok": False, "error": str(exc)}, False

    def _encode_single_lookup(self, payload: dict) -> bytes:
        """One single-vertex lookup, errors rendered like any request."""
        try:
            return _encode(self.lookup(payload["vertex"]))
        except _REQUEST_ERRORS as exc:
            return _encode({"ok": False, "error": str(exc)})

    def _fused_lookup_run(self, payloads: list[dict]) -> list[bytes]:
        """Answer a run of single-vertex lookups from one snapshot.

        One vectorized ``lookup_many`` replaces the per-request scalar
        probes; the responses are byte-identical to the per-request
        output (same keys, same order, same ``version`` semantics — the
        batch was concurrently in flight, so one snapshot reference is an
        admissible serialization).  Any malformed vertex drops the whole
        run back to per-request processing so error responses match
        exactly.
        """
        start = time.perf_counter()
        snapshot = self.store.current()
        try:
            query = np.fromiter(
                (int(payload["vertex"]) for payload in payloads),
                dtype=np.int64,
                count=len(payloads),
            )
            labels, fallback = snapshot.lookup_many(query)
        except _REQUEST_ERRORS + (OverflowError, KeyError):
            return [self._encode_single_lookup(payload) for payload in payloads]
        self.metrics.observe_lookup_batch(
            len(payloads),
            len(payloads),
            int(fallback.sum()),
            time.perf_counter() - start,
        )
        version = snapshot.version
        return [
            _encode(
                {
                    "ok": True,
                    "version": version,
                    "partition": partition,
                    "fallback": flagged,
                }
            )
            for partition, flagged in zip(labels.tolist(), fallback.tolist())
        ]

    async def _dispatch(self, payload: dict) -> tuple[dict, bool]:
        op = payload.get("op")
        if op == "lookup":
            return self._op_lookup(payload), False
        if op == "lookup_batch":
            return self._op_lookup_batch(payload), False
        if op == "ingest":
            return await self._op_ingest(payload), False
        if op == "stats":
            return {"ok": True, "stats": self.stats()}, False
        if op == "quality":
            return self._op_quality(), False
        if op == "version":
            return {"ok": True, "version": self.store.version}, False
        if op == "wait_version":
            return await self._op_wait_version(payload), False
        if op == "shutdown":
            return {"ok": True, "version": self.store.version}, True
        return {"ok": False, "error": f"unknown op {op!r}"}, False

    # -- lookups --------------------------------------------------------
    def lookup(self, vertex: int) -> dict:
        """Single-vertex lookup against the current snapshot."""
        start = time.perf_counter()
        snapshot = self.store.current()
        partition, fallback = snapshot.lookup(int(vertex))
        self.metrics.observe_lookup(
            1, int(fallback), time.perf_counter() - start
        )
        return {
            "ok": True,
            "version": snapshot.version,
            "partition": partition,
            "fallback": fallback,
        }

    def lookup_many(self, vertices) -> dict:
        """Batched lookup — answered from exactly one snapshot version."""
        start = time.perf_counter()
        snapshot = self.store.current()
        if not isinstance(vertices, (list, np.ndarray)):
            vertices = list(vertices)
        query = np.asarray(vertices, dtype=np.int64)
        labels, fallback = snapshot.lookup_many(query)
        self.metrics.observe_lookup(
            int(query.shape[0]),
            int(fallback.sum()),
            time.perf_counter() - start,
        )
        return {
            "ok": True,
            "version": snapshot.version,
            "partitions": labels.tolist(),
            "fallbacks": np.flatnonzero(fallback).tolist(),
        }

    def _op_lookup(self, payload: dict) -> dict:
        if "vertex" in payload:
            return self.lookup(payload["vertex"])
        if "vertices" in payload:
            return self.lookup_many(payload["vertices"])
        return {"ok": False, "error": "lookup requires 'vertex' or 'vertices'"}

    def _op_lookup_batch(self, payload: dict) -> dict:
        if "vertices" not in payload:
            return {"ok": False, "error": "lookup_batch requires 'vertices'"}
        return self.lookup_many(payload["vertices"])

    # -- churn ----------------------------------------------------------
    async def _op_ingest(self, payload: dict) -> dict:
        delta = _parse_delta(payload)
        added = self.pipeline.ingest(delta)
        triggered = self._maybe_start_repartition()
        return {
            "ok": True,
            "added_edges": added,
            "pending_edges": self.pipeline.pending_edges,
            "version": self.store.version,
            "repartition_running": self.pipeline.in_flight,
            "repartition_triggered": triggered,
        }

    def ingest(self, delta: GraphDelta) -> bool:
        """Programmatic ingest (tests): apply a delta, maybe repartition."""
        self.pipeline.ingest(delta)
        return self._maybe_start_repartition()

    def _maybe_start_repartition(self) -> bool:
        if not self.pipeline.should_trigger():
            return False
        if self._repartition_task is not None and not self._repartition_task.done():
            return False
        self._repartition_task = asyncio.get_running_loop().create_task(
            self._run_repartition()
        )
        return True

    async def _run_repartition(self) -> None:
        """One background repartition: freeze → executor thread → publish."""
        loop = asyncio.get_running_loop()
        job = self.pipeline.freeze()
        try:
            outcome = await loop.run_in_executor(None, self.pipeline.execute, job)
        except Exception as exc:
            self.pipeline.in_flight = False
            self.repartition_failures += 1
            self.last_repartition_error = f"{type(exc).__name__}: {exc}"
            logger.exception("background repartition failed")
            return
        report = self.pipeline.publish(job, outcome)
        self.last_report = report
        logger.info(
            "published version %d: phi=%.4f rho=%.4f migrations=%d "
            "(%.4f of vertices) in %.3fs (swap %.6fs)",
            report.version,
            report.phi,
            report.rho,
            report.migrations,
            report.migration_fraction,
            report.wall_seconds,
            report.swap_seconds,
        )
        if self._version_cond is not None:
            async with self._version_cond:
                self._version_cond.notify_all()
        # Churn that arrived while this run was in flight may already
        # exceed the thresholds again.
        self._maybe_start_repartition()

    async def _op_wait_version(self, payload: dict) -> dict:
        target = int(payload.get("version", self.store.version + 1))
        timeout = float(payload.get("timeout", 30.0))
        assert self._version_cond is not None
        try:
            async with self._version_cond:
                await asyncio.wait_for(
                    self._version_cond.wait_for(
                        lambda: self.store.version >= target
                    ),
                    timeout=timeout,
                )
        except asyncio.TimeoutError:
            return {
                "ok": False,
                "error": f"timed out waiting for version {target}",
                "version": self.store.version,
            }
        return {"ok": True, "version": self.store.version}

    # -- observability --------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` op payload: metrics + pipeline signals."""
        payload = self.metrics.stats()
        payload.update(
            {
                "version": self.store.version,
                "num_partitions": self.config.num_partitions,
                "graph_vertices": self.pipeline.graph.num_vertices,
                "graph_edges": self.pipeline.graph.num_edges,
                "pending_edges": self.pipeline.pending_edges,
                "estimated_phi": self.pipeline.estimated_phi(),
                "estimated_drift": self.pipeline.estimated_drift(),
                "repartition_in_flight": self.pipeline.in_flight,
                "repartition_failures": self.repartition_failures,
                "last_repartition_error": self.last_repartition_error,
            }
        )
        if self.last_report is not None:
            payload["last_repartition"] = self.last_report.as_row()
        return payload

    def _op_quality(self) -> dict:
        snapshot = self.store.current()
        phi, rho = self.pipeline.quality(snapshot)
        return {"ok": True, "version": snapshot.version, "phi": phi, "rho": rho}

    async def _periodic_log(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.config.log_interval)
                logger.info(self.metrics.log_line())
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            raise


def send_requests(
    host: str,
    port: int,
    requests: list[dict],
    timeout: float = 30.0,
    *,
    pipeline: bool = False,
) -> list[dict]:
    """Blocking JSON-lines client (tests, CI smoke, quick CLI probes).

    Opens one connection and returns the aligned list of responses.
    ``pipeline=False`` (default) sends one request and waits for its
    response before the next — one round trip per request.
    ``pipeline=True`` sends *every* request in one buffer, then reads all
    responses: this exercises the server's batch drain, lookup fusion and
    write coalescing, and is how the benchmark measures pipelined
    throughput.  A ``shutdown`` should be the last pipelined request —
    the server stops reading after acknowledging it.
    """
    responses: list[dict] = []
    with socket.create_connection((host, port), timeout=timeout) as conn:
        reader = conn.makefile("rb")
        if pipeline:
            conn.sendall(
                b"".join(
                    json.dumps(payload).encode("utf-8") + b"\n"
                    for payload in requests
                )
            )
            for _ in requests:
                line = reader.readline()
                if not line:
                    raise ServingError("connection closed before a response arrived")
                responses.append(json.loads(line))
        else:
            for payload in requests:
                conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
                line = reader.readline()
                if not line:
                    raise ServingError("connection closed before a response arrived")
                responses.append(json.loads(line))
    return responses
