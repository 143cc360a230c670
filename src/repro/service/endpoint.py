"""The endpoint core shared by ``repro serve`` and ``repro gateway``.

:class:`Endpoint` holds everything both daemon roles do: the listener
lifecycle, the connection read loop, an op → handler table (rules as
data, one dispatch engine) answering ``ping``, ``jobs``, ``cancel``,
``shutdown``, ``metrics`` and ``topology``, query-op latency and request
logging, sweep validation, and ``accepted``/``done`` framing.  A role
subclass sets :attr:`~Endpoint.NAME` / :attr:`~Endpoint.ROLE` and adds
its own handlers and fields through the hooks below; see
docs/architecture.md §6c.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import (Awaitable, Callable, Dict, Iterable, List, Optional,
                    Sequence)

from ..orchestrator.spec import SweepPoint
from ..workloads.registry import all_workloads, is_resolvable
from .jobs import Job, JobRegistry, JobState, workload_family
from .metrics import DEFAULT_WINDOW_S, HistogramFamily, RateMeter
from .promexport import PromExporter
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    SUBMIT_OPS,
    ProtocolError,
    encode_message,
    parse_request,
    parse_submit_fields,
    request_to_points,
    request_to_spec,
)
from .reqlog import RequestLog
from .tracing import SpanContext, parse_trace_fields

#: An op handler: ``(request, writer, span)`` → ``True`` closes the
#: connection.  ``span`` is the node span the core minted for a query
#: op; submissions get ``None`` and parse their own trace fields, since
#: a malformed id must fail a submission but never a query.
Handler = Callable[
    [Dict[str, object], asyncio.StreamWriter, Optional[SpanContext]],
    Awaitable[Optional[bool]]]


class JobCancelled(Exception):
    """Internal control flow: a job observed its cancel event."""


class JobError(Exception):
    """A job failure carrying typed ``error`` fields (``code`` /
    ``retry_after_s``, protocol v5), so that an ``overloaded`` shed by a
    shard reaches a gateway's client intact and its retry logic works."""

    def __init__(self, error: str, **typed: object) -> None:
        super().__init__(error)
        self.typed = typed


@dataclass
class SweepRequest:
    """A validated ``simulate``/``sweep``/``points`` submission."""

    client: str
    priority: Optional[str]           # explicit; None = classify by size
    caller: Optional[SpanContext]     # the sender's span, if traced
    points: Sequence[SweepPoint]
    summary: str


class Endpoint:
    """What every daemon role does; see the module docstring."""

    #: Announce / error wording; the ``server`` field is ``repro-NAME``.
    NAME: str
    #: ``role`` field of ``metrics`` and ``topology`` responses.
    ROLE: str

    def __init__(self, host: str, port: int, keep_jobs: int,
                 request_log: Optional[RequestLog],
                 metrics_window_s: float = DEFAULT_WINDOW_S,
                 prom_port: Optional[int] = None) -> None:
        self.host = host
        self.port = port
        self.registry = JobRegistry(keep=keep_jobs)
        self.request_log = request_log
        self.startup_error: Optional[BaseException] = None
        self.points_streamed = 0
        self.prom_port = prom_port
        self._points_meter = RateMeter(metrics_window_s)
        self._latency = HistogramFamily(("op", "family", "priority"))
        self._prom: Optional[PromExporter] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._t0 = 0.0
        self._handlers: Dict[str, Handler] = self._routes()

    # -- role hooks ------------------------------------------------------------

    def _routes(self) -> Dict[str, Handler]:
        """The op → handler table; roles extend it with their own ops."""
        return {
            "ping": self._reply(self._pong_msg),
            "jobs": self._reply(lambda: {
                "type": "jobs", "jobs": self.registry.snapshots()}),
            "metrics": self._reply(self._metrics_msg),
            "topology": self._reply(lambda: {
                "type": "topology", "role": self.ROLE,
                "protocol": PROTOCOL_VERSION, "host": self.host,
                "port": self.port, **self._topology_fields()}),
            "cancel": self._handle_cancel,
            "shutdown": self._handle_shutdown,
        }

    async def _start_role(self) -> List["asyncio.Task[None]"]:
        """Role startup once the listener is bound; returns the
        background tasks :meth:`run` cancels at shutdown."""
        return []

    def _close_role(self) -> None:
        """Role teardown, after the listener and background tasks stop."""

    def _announce_details(self) -> str:
        raise NotImplementedError

    def _pong_fields(self) -> Dict[str, object]:
        return {}

    def _done_fields(self, job: Job) -> Dict[str, object]:
        """Role fields of a sweep's ``done`` message, before
        ``elapsed_s``."""
        return {}

    def _metrics_fields(self) -> Dict[str, object]:
        raise NotImplementedError

    def _topology_fields(self) -> Dict[str, object]:
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------

    async def run(self, announce: Optional[Callable[[str], object]] = None
                  ) -> None:
        """Serve until a ``shutdown`` op or :meth:`request_stop`."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self.host, self.port or 0,
                limit=MAX_LINE_BYTES)
        except OSError as exc:
            self.startup_error = exc
            self._started.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        tasks: List["asyncio.Task[None]"] = []
        try:
            tasks = await self._start_role()
            self._t0 = time.monotonic()
            if self.prom_port is not None:
                try:
                    self._prom = PromExporter(self.metrics_snapshot,
                                              host=self.host,
                                              port=self.prom_port)
                    self.prom_port = self._prom.start()
                except OSError as exc:
                    self.startup_error = exc
                    self._started.set()
                    raise
            self._started.set()
            if announce is not None:
                prom_desc = (f", prometheus: :{self.prom_port}/metrics"
                             if self._prom is not None else "")
                announce(f"repro {self.NAME} listening on "
                         f"{self.host}:{self.port} "
                         f"({self._announce_details()}{prom_desc})")
            await self._stop.wait()
        finally:
            # Close the listener without awaiting wait_closed(): since
            # Python 3.12.1 that would block on every connection handler,
            # and one idle client sitting in readline() would hang
            # shutdown forever.  Lingering handler tasks are cancelled by
            # asyncio.run()'s teardown instead.
            server.close()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._close_role()
            if self._prom is not None:
                await self._loop.run_in_executor(None, self._prom.stop)
                self._prom = None

    def wait_started(self, timeout: Optional[float] = None) -> bool:
        """Block (from another thread) until the endpoint accepts
        connections; check :attr:`startup_error` on ``True``."""
        return self._started.wait(timeout)

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (SIGINT handler, test teardown)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed — the endpoint stopped on its own

    def _uptime_s(self) -> float:
        return round(time.monotonic() - self._t0, 3)

    # -- connection handling ---------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    msg: Dict[str, object]) -> None:
        writer.write(encode_message(msg))
        await writer.drain()

    async def _send_error(self, writer: asyncio.StreamWriter, error: object,
                          job: Optional[str] = None) -> None:
        await self._send(writer, {"type": "error", "job": job,
                                  "error": str(error)})

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded MAX_LINE_BYTES: protocol violation —
                    # report and drop the connection (resync is hopeless).
                    await self._send_error(
                        writer,
                        f"request line exceeds {MAX_LINE_BYTES} bytes")
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    req = parse_request(line)
                except ProtocolError as exc:
                    await self._send_error(writer, exc)
                    continue
                if await self._handle_request(req, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; its jobs keep warming the store
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, req: Dict[str, object],
                              writer: asyncio.StreamWriter) -> bool:
        """Serve one request through the handler table; ``True`` closes
        the connection."""
        op = str(req["op"])
        handler = self._handlers[op]
        if op in SUBMIT_OPS:
            # Submissions log themselves with job context at finish.
            await handler(req, writer, None)
            return False
        t_start = time.monotonic()
        span = self._query_trace(req)
        if await handler(req, writer, span):
            return True
        elapsed = time.monotonic() - t_start
        self._latency.observe((op, "-", "-"), elapsed)
        if self.request_log is not None:
            client = req.get("client")
            self.request_log.log(
                op, client=client if isinstance(client, str) else None,
                trace=span.log_fields() if span is not None else None,
                duration_s=elapsed)
        return False

    def _query_trace(self, req: Dict[str, object]) -> Optional[SpanContext]:
        """This node's span for a query op.  Malformed trace fields never
        fail a query — it just goes untraced."""
        try:
            caller = parse_trace_fields(req)
        except ProtocolError:
            return None
        return caller.child() if caller is not None else None

    def _reply(self, build: Callable[[], Dict[str, object]]) -> Handler:
        """A handler answering with the one message ``build`` returns."""
        async def handler(req: Dict[str, object],
                          writer: asyncio.StreamWriter,
                          span: Optional[SpanContext]) -> None:
            await self._send(writer, build())
        return handler

    # -- core ops --------------------------------------------------------------

    def _pong_msg(self) -> Dict[str, object]:
        return {"type": "pong", "server": f"repro-{self.NAME}",
                "protocol": PROTOCOL_VERSION, **self._pong_fields()}

    async def _handle_shutdown(self, req: Dict[str, object],
                               writer: asyncio.StreamWriter,
                               span: Optional[SpanContext]) -> bool:
        await self._send(writer, {"type": "ok", "stopping": True})
        assert self._stop is not None
        self._stop.set()
        return True

    async def _handle_cancel(self, req: Dict[str, object],
                             writer: asyncio.StreamWriter,
                             span: Optional[SpanContext]) -> None:
        job = self.registry.get(req.get("job"))
        if job is None:
            await self._send_error(writer, f"unknown job {req.get('job')!r}")
        elif job.kind == "tune":
            await self._send_error(writer, "tune jobs cannot be cancelled",
                                   job.id)
        elif job.finished_state:
            await self._send_error(
                writer, f"job {job.id} already {job.state.value}", job.id)
        else:
            job.cancel_event.set()
            await self._send(writer, {"type": "ok", "job": job.id})

    def _metrics_msg(self) -> Dict[str, object]:
        """The ``metrics`` reply.  Everything in it is in-memory — no
        store rescan, no executor hop — so ``--watch`` polling does not
        perturb the daemon it is observing."""
        return {"type": "metrics", "role": self.ROLE,
                "protocol": PROTOCOL_VERSION,
                "server": f"repro-{self.NAME}",
                "uptime_s": self._uptime_s(), **self._metrics_fields()}

    def metrics_snapshot(self) -> Dict[str, object]:
        """Thread-safe :meth:`_metrics_msg` for the Prometheus exporter:
        hops onto the event loop so scrape threads never read loop-owned
        state (queue, registry, shard table) mid-mutation."""
        loop = self._loop
        if loop is None:
            raise RuntimeError(f"{self.NAME} not running")

        async def _snap() -> Dict[str, object]:
            return self._metrics_msg()

        return asyncio.run_coroutine_threadsafe(_snap(), loop).result(
            timeout=10)

    # -- submissions -----------------------------------------------------------

    async def _parse_sweep(self, req: Dict[str, object],
                           writer: asyncio.StreamWriter
                           ) -> Optional[SweepRequest]:
        """Validate a ``simulate``/``sweep``/``points`` submission, or
        send its error and return ``None``.  Workloads are checked here,
        before any routing: an unknown one is one clean error, never N
        partial partition failures."""
        try:
            client, priority = parse_submit_fields(req)
            caller = parse_trace_fields(req)
            if req["op"] == "points":
                points: Sequence[SweepPoint] = request_to_points(req)
                summary = ", ".join(sorted({p.workload for p in points}))
            else:
                spec = request_to_spec(req)
                points = spec.points()
                summary = ", ".join(spec.workloads)
            if not points:
                raise ProtocolError(
                    "sweep matched no (workload, config) points")
            bad = sorted({p.workload for p in points
                          if not is_resolvable(p.workload)})
            if bad:
                raise ProtocolError(
                    f"unknown workload(s): {', '.join(bad)}; known: "
                    f"{', '.join(sorted(all_workloads()))}")
        except (ProtocolError, ValueError) as exc:
            await self._send_error(writer, exc)
            return None
        return SweepRequest(client or "anon", priority, caller, points,
                            summary)

    def _open_job(self, kind: str, summary: str, client: str,
                  priority: str, caller: Optional[SpanContext],
                  workloads: Iterable[str], total: int = 0) -> Job:
        """Register a job; a traced one gets this node's span."""
        job = self.registry.create(kind, summary=summary, client=client,
                                   priority=priority)
        job.total = total
        job.family = workload_family(workloads)
        if caller is not None:
            job.span = caller.child()
        return job

    async def _run_job(self, job: Job, writer: asyncio.StreamWriter,
                       body: Callable[["asyncio.Future[object]"],
                                      Awaitable[None]]) -> None:
        """Drive an admitted sweep job: ``accepted``, then ``body`` (which
        streams the results and raises :class:`JobCancelled` once the
        cancel waiter it is handed fires), then exactly one terminal
        message — ``done``, ``cancelled`` or ``error``."""
        await self._send_accepted(writer, job)
        job.state = JobState.RUNNING
        waiter = asyncio.ensure_future(job.cancel_event.wait())
        try:
            await body(waiter)
        except JobCancelled:
            job.finish(JobState.CANCELLED)
            await self._send(writer, {"type": "cancelled", "job": job.id,
                                      "done": job.done, "total": job.total})
        except (ConnectionError, asyncio.CancelledError):
            job.finish(JobState.FAILED, "client disconnected")
            raise
        except Exception as exc:  # simulation or shard failure
            job.finish(JobState.FAILED, str(exc))
            await self._send(writer, {
                "type": "error", "job": job.id, "error": str(exc),
                **(exc.typed if isinstance(exc, JobError) else {})})
        else:
            job.finish(JobState.DONE)
            await self._send(writer, self._done_msg(job))
        finally:
            waiter.cancel()
            self._log_job(job)

    async def _send_accepted(self, writer: asyncio.StreamWriter,
                             job: Job) -> None:
        msg: Dict[str, object] = {"type": "accepted", "job": job.id,
                                  "kind": job.kind, "points": job.total}
        if job.span is not None:
            msg["trace_id"] = job.span.trace_id
        await self._send(writer, msg)

    def _done_msg(self, job: Job) -> Dict[str, object]:
        msg: Dict[str, object] = {
            "type": "done", "job": job.id, "points": job.total,
            "simulations": job.simulations, "hits": job.hits,
            "coalesced": job.coalesced, **self._done_fields(job),
            "elapsed_s": round(job.elapsed_s(), 3)}
        if job.span is not None:
            msg["trace_id"] = job.span.trace_id
        return msg

    def _log_job(self, job: Job, outcome: Optional[str] = None) -> None:
        final = outcome or job.state.value
        if final != "shed":
            # Shed jobs are refused at admission in microseconds; folding
            # them into the serve histogram would drag p50 down during
            # exactly the overload storms the histogram should expose.
            self._latency.observe((job.kind, job.family, job.priority),
                                  job.elapsed_s())
        if self.request_log is None:
            return
        self.request_log.log(
            job.kind, client=job.client, job=job.id,
            trace=job.span.log_fields() if job.span is not None else None,
            points=job.total, sims=job.simulations, hits=job.hits,
            coalesced=job.coalesced, duration_s=job.elapsed_s(),
            outcome=final, error=job.error)
