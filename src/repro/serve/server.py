"""The asyncio network front-end over a :class:`SimilarityService`.

:class:`SimilarityServer` accepts length-prefixed JSON connections
(:mod:`repro.serve.protocol`) and feeds every admitted query into the
*same* request pipeline in-process callers use —
:meth:`SimilarityService.query_many` — so network answers are
bit-identical to in-process answers over the same service.

The data path is admission → queue → dispatcher → pipeline:

* **Admission** (per message, on the event loop): the frame is parsed
  into a :class:`~repro.service.requests.QueryRequest` and validated
  against the service immediately — a defective request is answered with
  its own typed error and never joins a batch.  Valid requests are
  admitted only while the inflight count is below ``max_inflight`` and
  the dispatch queue below ``queue_depth``; past either bound the server
  *sheds*: a typed ``SHED`` error is written straight back, so an
  overloaded server answers in microseconds instead of timing out.
* **Dispatcher** (one task): drains the queue into batches and resolves
  each batch with one ``query_many`` call in a worker thread — concurrent
  requests from independent connections coalesce into the service's
  micro-batcher exactly like a batched in-process call, which is where
  the paper's shared-partial-sums amortisation pays off under load.
* **Degradation**: each answered request's admission-to-response latency
  feeds an :class:`~repro.serve.slo.SLOController`.  While the live p99
  breaches ``slo_p99_ms`` (and ``shed_policy="degrade"``), the dispatcher
  routes *undecided* queries (``approx=None``) to the Monte-Carlo tier —
  the planner's index→approx→compute preference driven by measured
  latency instead of static budgets.  Queries that explicitly demand
  exactness (``approx=False``) are never degraded, and with
  ``shed_policy="shed"`` the server shreds load instead of loosening it.

Responses may return out of request order on one connection (each carries
the request's ``id``); writes are serialised per connection.  The server
runs inside any event loop (``await server.start()``) or on a dedicated
background thread (:meth:`SimilarityServer.start_in_thread`) for tests,
benchmarks and the CLI.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..exceptions import ConfigurationError
from ..obs import MetricsRegistry, Trace, graft
from ..service.requests import (
    PROTOCOL_VERSION,
    ErrorCode,
    QueryRequest,
    ServeError,
)
from ..service.service import SimilarityService
from .protocol import read_message, write_message
from .slo import SLOController

__all__ = ["SimilarityServer"]


@dataclass
class _Admitted:
    """One admitted query waiting for the dispatcher."""

    request: QueryRequest
    future: asyncio.Future
    admitted_at: float
    degraded: bool = field(default=False)
    # Tracing timestamps (``time.perf_counter``), set only for traced
    # requests: message receipt and enqueue time, for the admission and
    # queue-wait spans.
    received_perf: Optional[float] = field(default=None)
    enqueued_perf: Optional[float] = field(default=None)


class SimilarityServer:
    """Serve a :class:`SimilarityService` over asyncio TCP.

    Parameters
    ----------
    service:
        The tiered service to serve; usually ``engine.serve()`` — or use
        :meth:`Engine.server` which wires the settings below from the
        session's :class:`~repro.engine.config.EngineConfig`.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        ``server.port`` after :meth:`start`).
    max_inflight:
        Admitted-but-unanswered requests allowed before shedding.
    queue_depth:
        Dispatch-queue bound; arrivals beyond it are shed.
    slo_p99_ms:
        Live p99 target driving degradation; ``None`` disables it.
    shed_policy:
        ``"degrade"`` (route undecided queries to the approx tier while
        the SLO is breached) or ``"shed"`` (never degrade).
    max_batch:
        Dispatcher batch bound; defaults to the service batcher's
        ``max_batch`` so one drain fills one micro-batch.
    """

    def __init__(
        self,
        service: SimilarityService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 256,
        queue_depth: int = 1024,
        slo_p99_ms: Optional[float] = None,
        shed_policy: str = "degrade",
        max_batch: Optional[int] = None,
    ) -> None:
        if shed_policy not in ("degrade", "shed"):
            raise ConfigurationError(
                f"shed_policy must be 'degrade' or 'shed', got {shed_policy!r}"
            )
        if max_inflight <= 0:
            raise ConfigurationError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if queue_depth <= 0:
            raise ConfigurationError(
                f"queue_depth must be positive, got {queue_depth}"
            )
        self.service = service
        self.host = host
        self.port = int(port)
        self.max_inflight = int(max_inflight)
        self.queue_depth = int(queue_depth)
        self.shed_policy = shed_policy
        self.max_batch = int(
            service.batcher.max_batch if max_batch is None else max_batch
        )
        if self.max_batch <= 0:
            raise ConfigurationError(
                f"max_batch must be positive, got {self.max_batch}"
            )
        self.registry = MetricsRegistry()
        """Server-side metrics registry (admission counters plus the SLO
        controller's instruments); merged with the service's registry for
        the wire ``metrics`` op."""
        self.slo = SLOController(slo_p99_ms, registry=self.registry)

        # Counters (mutated on the event loop only; registry-backed so
        # they export, with the historical attributes as read-only views).
        self._received = self.registry.counter("server_requests_received")
        self._admitted = self.registry.counter("server_requests_admitted")
        self._answered = self.registry.counter("server_requests_answered")
        self._shed = self.registry.counter("server_requests_shed")
        self._failed = self.registry.counter("server_requests_failed")
        self._degraded_queries = self.registry.counter("server_degraded_queries")
        self._inflight_gauge = self.registry.gauge("server_inflight")

        self._inflight = 0
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Counter views (historical attribute names)
    # ------------------------------------------------------------------ #
    @property
    def requests_received(self) -> int:
        return int(self._received.value)

    @property
    def requests_admitted(self) -> int:
        return int(self._admitted.value)

    @property
    def requests_answered(self) -> int:
        return int(self._answered.value)

    @property
    def requests_shed(self) -> int:
        return int(self._shed.value)

    @property
    def requests_failed(self) -> int:
        return int(self._failed.value)

    @property
    def degraded_queries(self) -> int:
        return int(self._degraded_queries.value)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "SimilarityServer":
        """Bind the listening socket and start the dispatcher task."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_depth)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        """Stop serving: shed queued work, close every connection."""
        if self._server is None:
            return
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        assert self._queue is not None
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(
                    ServeError(
                        ErrorCode.UNAVAILABLE,
                        "server shutting down",
                        request_id=item.request.request_id,
                    )
                )
        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        # One scheduling tick lets handler tasks observe the failures and
        # the closed transports before the loop is torn down.
        await asyncio.sleep(0)
        self._server = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------------ #
    # Background-thread harness (tests, benchmarks, simple embedding)
    # ------------------------------------------------------------------ #
    def start_in_thread(self, timeout: float = 10.0) -> "SimilarityServer":
        """Run the server on a dedicated daemon thread with its own loop.

        Returns once the port is bound; pair with :meth:`stop_in_thread`.
        """
        if self._thread is not None:
            raise ConfigurationError("server thread already running")
        ready = threading.Event()
        failure: list[BaseException] = []

        async def main() -> None:
            try:
                await self.start()
                self._stop_event = asyncio.Event()
            except BaseException as error:  # surface bind failures
                failure.append(error)
                ready.set()
                return
            ready.set()
            await self._stop_event.wait()
            await self.stop()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="similarity-server",
            daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise ConfigurationError("server thread failed to start in time")
        if failure:
            self._thread.join(timeout)
            self._thread = None
            raise failure[0]
        return self

    def stop_in_thread(self, timeout: float = 10.0) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread."""
        if self._thread is None:
            return
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        self._thread = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    payload = await read_message(reader)
                except ServeError as error:
                    # Framing is broken (oversized/invalid frame); report
                    # and drop the connection — there is no resync point.
                    await self._send(writer, write_lock, error.to_wire())
                    break
                if payload is None:
                    break
                task = asyncio.ensure_future(
                    self._handle_message(payload, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            BrokenPipeError,
        ):
            pass  # peer vanished mid-frame; nothing to answer
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, BrokenPipeError):
                await writer.wait_closed()

    async def _handle_message(
        self,
        payload: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self._received.inc()
        op = payload.get("op")
        if op == "ping":
            await self._send(
                writer, write_lock, {"op": "pong", "v": PROTOCOL_VERSION}
            )
        elif op == "stats":
            await self._send(
                writer,
                write_lock,
                {
                    "op": "stats",
                    "v": PROTOCOL_VERSION,
                    "server": self.snapshot(),
                    "tiers": self.service.stats.snapshot(),
                },
            )
        elif op == "metrics":
            await self._send(writer, write_lock, self.metrics_payload())
        elif op == "query":
            await self._handle_query(payload, writer, write_lock)
        else:
            error = ServeError(
                ErrorCode.BAD_REQUEST,
                f"unknown op {op!r}",
                request_id=_payload_id(payload),
            )
            await self._send(writer, write_lock, error.to_wire())

    async def _handle_query(
        self,
        payload: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        received_perf = time.perf_counter() if payload.get("trace") else None
        try:
            request = QueryRequest.from_wire(payload)
            request = self.service.validate_request(request)
        except ServeError as error:
            self._failed.inc()
            await self._send(
                writer,
                write_lock,
                error.with_request_id(_payload_id(payload)).to_wire(),
            )
            return

        assert self._queue is not None and self._loop is not None
        if self._inflight >= self.max_inflight or self._queue.full():
            self._shed.inc()
            shed = ServeError(
                ErrorCode.SHED,
                "server over capacity "
                f"(inflight={self._inflight}/{self.max_inflight}, "
                f"queued={self._queue.qsize()}/{self.queue_depth})",
                request_id=request.request_id,
            )
            await self._send(writer, write_lock, shed.to_wire())
            return

        self._admitted.inc()
        self._inflight += 1
        item = _Admitted(
            request=request,
            future=self._loop.create_future(),
            admitted_at=self._loop.time(),
            received_perf=received_perf,
        )
        if request.trace:
            item.enqueued_perf = time.perf_counter()
        # Capacity was checked above and nothing awaited since; the queue
        # cannot be full here.
        self._queue.put_nowait(item)
        try:
            response = await item.future
        except ServeError as error:
            self._failed.inc()
            await self._send(writer, write_lock, error.to_wire())
            return
        finally:
            self._inflight -= 1
        self._answered.inc()
        await self._send(writer, write_lock, response.to_wire())

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: dict,
    ) -> None:
        with contextlib.suppress(ConnectionError, BrokenPipeError):
            async with write_lock:
                await write_message(writer, payload)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            item = await self._queue.get()
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._dispatch_batch(batch)

    async def _dispatch_batch(self, batch: list[_Admitted]) -> None:
        assert self._loop is not None
        degrade = (
            self.slo.degraded
            and self.shed_policy == "degrade"
            and self.service.fingerprints is not None
        )
        requests: list[QueryRequest] = []
        for item in batch:
            request = item.request
            if degrade and request.approx is None:
                # Undecided queries ride the approx tier while degraded;
                # explicit approx=False stays exact — degradation loosens
                # defaults, never overrides a caller's demand.
                request = replace(request, approx=True)
                item.degraded = True
                self._degraded_queries.inc()
            requests.append(request)
        dispatch_started = time.perf_counter()
        try:
            service_started, responses = await self._loop.run_in_executor(
                None, self._query_many, requests
            )
        except Exception as error:  # noqa: BLE001 — every failure is typed below
            now = self._loop.time()
            for item in batch:
                self.slo.observe(now - item.admitted_at)
                if not item.future.done():
                    item.future.set_exception(
                        ServeError.wrap(
                            error, request_id=item.request.request_id
                        )
                    )
            return
        now = self._loop.time()
        dispatch_ended = time.perf_counter()
        for item, response in zip(batch, responses):
            self.slo.observe(now - item.admitted_at)
            if item.request.trace:
                response = self._graft_trace(
                    item, response, dispatch_started, dispatch_ended,
                    service_started,
                )
            if not item.future.done():
                item.future.set_result(response)

    def _query_many(self, requests):
        """``service.query_many`` plus the clock reading it started at.

        Runs in the executor; the reading (same process, same
        ``perf_counter``) places a traced request's service subtree on the
        request tree's time base.
        """
        return time.perf_counter(), self.service.query_many(requests)

    def _graft_trace(
        self, item, response, dispatch_started, dispatch_ended, service_started
    ):
        """Wrap the service's span tree in the server-side spans.

        The result covers the full network path — admission (frame parse +
        validation), dispatch-queue wait, and the dispatcher's
        ``query_many`` call, with the service's own tree (tier probe →
        batcher → kernel) grafted under the dispatch span — and rides back
        on the response's ``trace`` field.  The grafted subtree is
        re-identified beneath the dispatch span and its offsets rebased
        onto the request root, so span ids stay unique and the whole tree
        shares one time base.
        """
        service_tree = response.trace
        origin = (
            item.received_perf
            if item.received_perf is not None
            else item.enqueued_perf
        )
        enqueued = item.enqueued_perf
        if origin is None or enqueued is None:
            return response
        trace = Trace(
            "request",
            trace_id=(service_tree or {}).get("trace_id"),
            start=origin,
            degraded=item.degraded,
        )
        trace.root.record("admission", origin, enqueued)
        trace.root.record("queue", enqueued, dispatch_started)
        trace.root.record("dispatch", dispatch_started, dispatch_ended)
        trace.root.finish(dispatch_ended)
        tree = trace.to_tree()
        if service_tree is not None:
            graft(
                tree["children"][-1],
                service_tree,
                (service_started - origin) * 1000.0,
            )
        return replace(response, trace=tree)

    def metrics_payload(self) -> dict[str, object]:
        """The wire ``metrics`` response: full registry snapshot + extras.

        Merges the server's registry (admission counters, SLO instruments)
        with the service's (tier hits/latencies, batcher counters) and
        attaches the slow-query log and the serving plan digest.
        """
        self._inflight_gauge.set(self._inflight)
        return {
            "op": "metrics",
            "v": PROTOCOL_VERSION,
            "metrics": self.registry.merged_snapshot(self.service.registry),
            "slow_queries": self.service.slow_queries.snapshot(),
            "plan_digest": self.service.plan_digest,
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, object]:
        """Server-side counters for the ``stats`` op and benchmarks."""
        received = self.requests_received
        return {
            "received": received,
            "admitted": self.requests_admitted,
            "answered": self.requests_answered,
            "shed": self.requests_shed,
            "failed": self.requests_failed,
            "shed_rate": self.requests_shed / received if received else 0.0,
            "degraded_queries": self.degraded_queries,
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "queue_depth": self.queue_depth,
            "shed_policy": self.shed_policy,
            "slo": self.slo.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"<SimilarityServer {self.host}:{self.port} "
            f"inflight={self._inflight} shed={self.requests_shed}>"
        )


def _payload_id(payload: dict) -> Optional[int]:
    """Best-effort request id recovery for error responses."""
    request_id = payload.get("id")
    if isinstance(request_id, int) and not isinstance(request_id, bool):
        return request_id
    return None
