"""The sharded-fabric gateway daemon.

``repro gateway`` fronts N independent ``repro serve`` shards and makes
them look like one daemon to an unmodified
:class:`~repro.service.client.ServiceClient`.  The trick that keeps the
single-daemon guarantees intact is *routing by traffic key*: every sweep
point is assigned to a shard by consistent hash
(:class:`~repro.service.hashing.HashRing`) of the same
bandwidth-independent key the result store and the runner cache use.
Points that would share one simulation therefore always land on the
same shard, so that shard's local single-flight table remains a
globally correct dedup — no cross-shard locks, no coordination
protocol.

What the gateway does per sweep/points job:

* partition the point list across *healthy* shards by hashed key,
* ship each partition as one protocol-v4 ``points`` op,
* merge the per-shard streams back into the client's stream in strict
  global submission order, passing each ``point``/``result`` payload
  through verbatim (byte-identical to what a lone daemon would send),
* on a shard death mid-stream (EOF, connection reset, read timeout),
  re-hash only that shard's unfinished points over the survivors and
  keep going — the ``done`` message reports how many points were
  ``requeued``.

Requeue never duplicates simulations when the shards share a cache
directory: the dying shard's completed results are already on disk
(single atomic append per record), and every shard reloads the store
before claiming cold keys (:meth:`SimulationService._sync_store`), so
requeued-but-already-simulated keys resolve as warm hits.

Tune jobs are forwarded whole to one shard (chosen by hash of the
workload name) and their stream proxied; they are **not** requeued on
shard death — a tuner's search state lives in the shard.  ``predict``
fails over across healthy shards.  A shard ``error`` reply (a
deterministic simulation failure) fails the job without requeue:
re-running it elsewhere would fail the same way.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import (AsyncIterator, Awaitable, Callable, Dict, List,
                    Optional, Sequence, Tuple)

from ..orchestrator.spec import SweepPoint
from ..orchestrator.store import ResultStore
from .endpoint import Endpoint, Handler, JobCancelled, JobError
from .hashing import DEFAULT_REPLICAS, HashRing
from .jobs import Job, JobState
from .metrics import DEFAULT_WINDOW_S
from .protocol import (
    DEFAULT_HOST,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    parse_submit_fields,
    points_request,
)
from .reqlog import RequestLog
from .scheduling import classify_priority
from .tracing import SpanContext, attach_trace, parse_trace_fields


class _NoHealthyShards(Exception):
    """Internal control flow: routing found zero live shards."""


class _ShardDown(Exception):
    """A shard failed its side of a conversation: refused or timed-out
    connect, read timeout, EOF, or a garbled line.  Distinct from
    :class:`OSError` so a *client* disconnect mid-forward is never
    misread as a shard death."""


def parse_shard_addrs(specs: Sequence[str]) -> List[Tuple[str, int]]:
    """Parse ``host:port`` / bare-``port`` shard specs (CLI ``--shards``).

    Rejects duplicates: the ring treats shard ids as distinct nodes, and
    listing one shard twice would silently skew its key share.
    """
    addrs: List[Tuple[str, int]] = []
    seen = set()
    for spec in specs:
        text = spec.strip()
        host, _, port_text = text.rpartition(":")
        if not host:
            host = DEFAULT_HOST
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"bad shard address {spec!r}: expected host:port or port")
        if not (0 < port < 65536):
            raise ValueError(f"bad shard address {spec!r}: port out of range")
        addr = (host, port)
        if addr in seen:
            raise ValueError(f"duplicate shard address {spec!r}")
        seen.add(addr)
        addrs.append(addr)
    if not addrs:
        raise ValueError("a gateway needs at least one shard address")
    return addrs


@dataclass
class ShardState:
    """The gateway's view of one backend daemon."""

    id: str                       # "host:port" — also the ring node id
    host: str
    port: int
    healthy: bool = False
    protocol: Optional[int] = None
    last_error: Optional[str] = None
    deaths: int = 0               # times this shard failed mid-job
    requeued: int = 0             # points re-hashed off this shard's deaths

    def snapshot(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "protocol": self.protocol,
            "deaths": self.deaths,
            "requeued": self.requeued,
            "error": self.last_error,
        }


class GatewayService(Endpoint):
    """The daemon behind ``repro gateway``.

    Lifecycle is the shared :class:`~repro.service.endpoint.Endpoint`
    one (:meth:`run` / :meth:`wait_started` / :meth:`request_stop`), so
    the same thread harnesses drive both roles.  The gateway holds no
    simulation state of its own — no pool, no store — which is why
    restarting it loses nothing but in-flight client conversations.
    """

    NAME = "gateway"
    ROLE = "gateway"

    def __init__(self,
                 shards: Sequence[Tuple[str, int]],
                 host: str = DEFAULT_HOST,
                 port: int = 0,
                 replicas: int = DEFAULT_REPLICAS,
                 health_interval_s: float = 2.0,
                 ping_timeout_s: float = 5.0,
                 shard_read_timeout_s: float = 600.0,
                 keep_jobs: int = 256,
                 request_log: Optional[RequestLog] = None,
                 metrics_window_s: float = DEFAULT_WINDOW_S,
                 prom_port: Optional[int] = None) -> None:
        super().__init__(host, port, keep_jobs, request_log,
                         metrics_window_s, prom_port)
        self.replicas = max(1, replicas)
        self.health_interval_s = max(0.05, health_interval_s)
        self.ping_timeout_s = max(0.05, ping_timeout_s)
        self.shard_read_timeout_s = max(0.05, shard_read_timeout_s)
        self.requeued_total = 0
        self._shards: "Dict[str, ShardState]" = {}
        for shard_host, shard_port in shards:
            state = ShardState(id=f"{shard_host}:{shard_port}",
                               host=shard_host, port=shard_port)
            if state.id in self._shards:
                raise ValueError(f"duplicate shard {state.id}")
            self._shards[state.id] = state
        if not self._shards:
            raise ValueError("a gateway needs at least one shard")

    def _routes(self) -> Dict[str, Handler]:
        return {
            **super()._routes(),
            "stats": self._reply(self._stats_msg),
            "predict": self._forward_predict,
            "tune": self._forward_tune,
            "simulate": self._merged_job,
            "sweep": self._merged_job,
            "points": self._merged_job,
        }

    # -- lifecycle -------------------------------------------------------------

    async def _start_role(self) -> List["asyncio.Task[None]"]:
        # One initial sweep of the shard table before accepting work so
        # the first job routes around shards that never came up.
        await self._check_all()
        return [asyncio.create_task(self._health_loop())]

    def _announce_details(self) -> str:
        return (f"shards: {self._healthy_count()}/{len(self._shards)} "
                f"healthy, ring replicas: {self.replicas}")

    # -- shard health ----------------------------------------------------------

    async def _health_loop(self) -> None:
        """Re-ping every shard on a fixed cadence.

        Detects deaths between jobs and *resurrections*: a restarted
        shard re-enters the ring, and — consistent hashing — reclaims
        exactly the keys it owned before, nothing else moves.
        """
        while True:
            await asyncio.sleep(self.health_interval_s)
            await self._check_all()

    async def _check_all(self) -> None:
        await asyncio.gather(
            *(self._check_shard(s) for s in self._shards.values()))

    async def _check_shard(self, shard: ShardState) -> None:
        """Ping one shard.  Only shards of this gateway's own protocol
        version are admitted: partitions and forwarded jobs carry every
        optional field the current protocol defines."""
        try:
            async with self._shard_conn(shard, {"op": "ping"},
                                        self.ping_timeout_s) as read:
                msg = await read()
            protocol = msg.get("protocol")
            if msg.get("type") != "pong" or not isinstance(protocol, int):
                raise ProtocolError("did not answer ping with a pong")
            shard.protocol = protocol
            if protocol != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"speaks protocol v{protocol}, gateway needs "
                    f"v{PROTOCOL_VERSION}")
        except (_ShardDown, ProtocolError) as exc:
            self._mark_unhealthy(shard, str(exc))
            return
        shard.healthy = True
        shard.last_error = None

    def _mark_unhealthy(self, shard: ShardState, reason: str) -> None:
        if shard.healthy:
            shard.deaths += 1
        shard.healthy = False
        shard.last_error = reason

    def _healthy_count(self) -> int:
        return sum(1 for s in self._shards.values() if s.healthy)

    def _healthy_ring(self) -> HashRing:
        healthy = [s.id for s in self._shards.values() if s.healthy]
        if not healthy:
            raise _NoHealthyShards(
                f"no healthy shards: every backend daemon is down or does "
                f"not speak protocol v{PROTOCOL_VERSION}; check 'repro "
                "jobs --topology' and restart shards with 'repro serve'")
        return HashRing(healthy, replicas=self.replicas)

    @contextlib.asynccontextmanager
    async def _shard_conn(self, shard: ShardState,
                          request: Dict[str, object], timeout: float
                          ) -> AsyncIterator[
                              Callable[[], Awaitable[Dict[str, object]]]]:
        """One conversation with ``shard``: connect, send ``request``,
        and yield ``read()``, which returns the shard's next message.
        Every shard-side failure (connect, send, ``timeout`` on a read,
        EOF, a bad line) raises :class:`_ShardDown`."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port,
                                        limit=MAX_LINE_BYTES), timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise _ShardDown(f"unreachable: {str(exc) or 'timeout'}")

        async def read() -> Dict[str, object]:
            try:
                line = await asyncio.wait_for(reader.readline(), timeout)
                if not line:
                    raise ConnectionError("shard closed the stream")
                return decode_message(line)
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                raise _ShardDown(str(exc) or type(exc).__name__) from exc

        try:
            try:
                writer.write(encode_message(request))
                await writer.drain()
            except (OSError, ValueError) as exc:
                raise _ShardDown(str(exc) or type(exc).__name__) from exc
            yield read
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- query ops -------------------------------------------------------------

    def _shard_counts(self) -> Dict[str, object]:
        return {"shards_healthy": self._healthy_count(),
                "shards_total": len(self._shards)}

    def _pong_fields(self) -> Dict[str, object]:
        return self._shard_counts()

    def _topology_fields(self) -> Dict[str, object]:
        return {"replicas": self.replicas,
                "requeued_total": self.requeued_total,
                "shards": [s.snapshot() for s in self._shards.values()]}

    def _stats_msg(self) -> Dict[str, object]:
        return {
            "type": "stats",
            "role": "gateway",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": self._uptime_s(),
            "jobs": self.registry.counts_by_state(),
            "points_streamed": self.points_streamed,
            "requeued_total": self.requeued_total,
            **self._shard_counts(),
        }

    def _metrics_fields(self) -> Dict[str, object]:
        """Gateway-side counters; per-shard dedup and queue detail lives
        behind each shard's own ``metrics`` op."""
        return {
            "points_streamed": self.points_streamed,
            "requeued_total": self.requeued_total,
            "jobs": self.registry.counts_by_state(),
            "rates": {
                "window_s": self._points_meter.window_s,
                "points_per_s": round(self._points_meter.rate(), 4),
            },
            "latency": self._latency.snapshot(),
            **self._shard_counts(),
            "shards": [s.snapshot() for s in self._shards.values()],
        }

    # -- merged sweep jobs -----------------------------------------------------

    async def _merged_job(self, req: Dict[str, object],
                          writer: asyncio.StreamWriter,
                          span: Optional[SpanContext]) -> None:
        """Fan a sweep/points job across the shards; stream the merge."""
        sweep = await self._parse_sweep(req, writer)
        if sweep is None:
            return
        points = sweep.points
        # Classify by the *whole* submission so each shard applies the
        # same scheduling class to its partition as a lone daemon would
        # to the full job.
        job = self._open_job(str(req["op"]), sweep.summary, sweep.client,
                             classify_priority(sweep.priority, len(points)),
                             sweep.caller, (p.workload for p in points),
                             total=len(points))
        queue: "asyncio.Queue[Tuple[object, ...]]" = asyncio.Queue()
        tasks: "set[asyncio.Task]" = set()

        async def body(waiter: "asyncio.Future[object]") -> None:
            try:
                await self._run_merge(job, points, queue, tasks, waiter,
                                      writer)
            finally:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

        await self._run_job(job, writer, body)

    def _done_fields(self, job: Job) -> Dict[str, object]:
        return {"requeued": job.requeued}

    async def _run_merge(self, job: Job, points: Sequence[SweepPoint],
                         queue: "asyncio.Queue[Tuple[object, ...]]",
                         tasks: "set[asyncio.Task]",
                         waiter: "asyncio.Future[object]",
                         writer: asyncio.StreamWriter) -> None:
        """The merge loop: spawn per-shard workers, stream results in
        global submission order, requeue a dead shard's leftovers."""
        indexed = list(enumerate(points))
        live_workers = self._spawn_workers(self._healthy_ring(), indexed,
                                           queue, tasks, job)
        buffered: Dict[int, Dict[str, object]] = {}
        next_index = 0
        while live_workers > 0:
            item = await self._next_item(queue, waiter)
            kind = item[0]
            if kind == "result":
                _, global_index, msg = item
                buffered[int(global_index)] = msg  # type: ignore[arg-type]
                while next_index in buffered:
                    shard_msg = buffered.pop(next_index)
                    job.done += 1
                    self.points_streamed += 1
                    self._points_meter.record(1)
                    await self._send(writer, {
                        "type": "result", "job": job.id,
                        "index": next_index, "done": job.done,
                        "total": job.total,
                        # Verbatim pass-through: byte-identity with a
                        # lone daemon lives or dies right here.
                        "point": shard_msg["point"],
                        "result": shard_msg["result"],
                    })
                    next_index += 1
                if job.cancelled:
                    raise JobCancelled
            elif kind == "done":
                _, _, msg = item
                job.simulations += int(msg.get("simulations", 0))  # type: ignore[union-attr]
                job.hits += int(msg.get("hits", 0))  # type: ignore[union-attr]
                job.coalesced += int(msg.get("coalesced", 0))  # type: ignore[union-attr]
                live_workers -= 1
            elif kind == "dead":
                _, shard_id, remaining, reason = item
                live_workers -= 1
                remaining = list(remaining)  # type: ignore[arg-type]
                if remaining:
                    job.requeued += len(remaining)
                    self.requeued_total += len(remaining)
                    self._shards[str(shard_id)].requeued += len(remaining)
                    # The failover gets its own span (parent: the gateway
                    # job span) so a trace grep shows the requeue hop and
                    # every respawned partition hangs under it.
                    requeue_span = (job.span.child()
                                    if job.span is not None else None)
                    if self.request_log is not None:
                        self.request_log.log(
                            "requeue", client=job.client, job=job.id,
                            trace=(requeue_span.log_fields()
                                   if requeue_span is not None else None),
                            points=len(remaining),
                            error=f"shard {shard_id}: {reason}")
                    # Survivors only: the ring over the still-healthy
                    # shards moves exactly the dead shard's keys.
                    live_workers += self._spawn_workers(
                        self._healthy_ring(), remaining, queue, tasks, job,
                        span=requeue_span)
            else:  # "job-error"
                _, shard_id, msg = item
                assert isinstance(msg, dict)
                raise JobError(f"shard {shard_id}: {msg['error']}",
                               **{k: msg[k] for k in ("code", "retry_after_s")
                                  if msg.get(k) is not None})
        if next_index != job.total:
            raise RuntimeError(
                f"merge lost points: streamed {next_index} of {job.total}")

    def _spawn_workers(self, ring: HashRing,
                       indexed: Sequence[Tuple[int, SweepPoint]],
                       queue: "asyncio.Queue[Tuple[object, ...]]",
                       tasks: "set[asyncio.Task]",
                       job: Job,
                       span: Optional[SpanContext] = None) -> int:
        """Partition ``indexed`` points by hashed traffic key and start
        one worker per non-empty shard batch; returns the worker count.

        ``span`` is the span the partitions are sent under — the job
        span for the first fan-out, a requeue span on failover (``None``
        falls back to the job span).
        """
        if span is None:
            span = job.span
        batches: Dict[str, List[Tuple[int, SweepPoint]]] = {}
        for index, point in indexed:
            shard_id = ring.assign(ResultStore.key_str(point.key()))
            batches.setdefault(shard_id, []).append((index, point))
        for shard_id, batch in batches.items():
            task = asyncio.create_task(
                self._shard_worker(self._shards[shard_id], batch, queue,
                                   job, span))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        return len(batches)

    async def _next_item(self, queue: "asyncio.Queue[Tuple[object, ...]]",
                         waiter: "asyncio.Future[object]",
                         ) -> Tuple[object, ...]:
        getter = asyncio.ensure_future(queue.get())
        try:
            await asyncio.wait({getter, waiter},
                               return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            getter.cancel()
            raise
        if getter.done():
            return getter.result()
        getter.cancel()
        raise JobCancelled

    async def _shard_worker(self, shard: ShardState,
                            batch: Sequence[Tuple[int, SweepPoint]],
                            queue: "asyncio.Queue[Tuple[object, ...]]",
                            job: Job,
                            span: Optional[SpanContext] = None) -> None:
        """Run one shard's partition; terminal queue item is exactly one
        of ``done`` (stream finished), ``dead`` (shard failed — carries
        the unstreamed remainder for requeue) or ``job-error`` (the
        shard reported a deterministic failure)."""
        streamed = 0
        partition = attach_trace(
            points_request([p for _, p in batch], client=job.client,
                           priority=job.priority), span)
        try:
            async with self._shard_conn(shard, partition,
                                        self.shard_read_timeout_s) as read:
                while True:
                    msg = await read()
                    kind = msg.get("type")
                    if kind == "result":
                        local = int(msg.get("index", streamed))  # type: ignore[arg-type]
                        if not (0 <= local < len(batch)):
                            raise _ShardDown(
                                f"shard sent result index {local} outside "
                                f"its batch of {len(batch)}")
                        streamed = local + 1
                        await queue.put(("result", batch[local][0], msg))
                    elif kind == "done":
                        await queue.put(("done", shard.id, msg))
                        return
                    elif kind in ("error", "cancelled"):
                        if "error" not in msg:
                            msg["error"] = f"batch {kind} by shard"
                        await queue.put(("job-error", shard.id, msg))
                        return
                    # anything else (heartbeats, future fields): ignore
        except (_ShardDown, ValueError) as exc:
            reason = str(exc) or type(exc).__name__
            self._mark_unhealthy(shard, reason)
            # Results the shard streamed before dying are merged and
            # (crucially) already on disk; only the rest re-hash.
            await queue.put(("dead", shard.id, batch[streamed:], reason))

    # -- forwarded ops ---------------------------------------------------------

    @staticmethod
    def _reparent(req: Dict[str, object],
                  span: Optional[SpanContext]) -> Dict[str, object]:
        """``req`` for a shard: the client's span stripped and this
        gateway's attached, so the hop tree nests client → gateway →
        shard."""
        fwd = {k: v for k, v in req.items()
               if k not in ("trace_id", "span_id")}
        return attach_trace(fwd, span)

    async def _forward_predict(self, req: Dict[str, object],
                               writer: asyncio.StreamWriter,
                               span: Optional[SpanContext]) -> None:
        """Predictions are stateless — any shard answers identically, so
        fail over across the healthy ones instead of routing."""
        fwd = self._reparent(req, span)
        reply: Optional[Dict[str, object]] = None
        for shard in self._shards.values():
            if not shard.healthy:
                continue
            try:
                async with self._shard_conn(
                        shard, fwd, self.shard_read_timeout_s) as read:
                    reply = await read()
                break
            except _ShardDown as exc:
                self._mark_unhealthy(shard, str(exc))
        if reply is None:
            await self._send_error(writer, "no healthy shards to answer "
                                   "predict; restart shards with 'repro "
                                   "serve'")
        else:
            await self._send(writer, reply)

    async def _forward_tune(self, req: Dict[str, object],
                            writer: asyncio.StreamWriter,
                            span: Optional[SpanContext]) -> None:
        """Proxy a tune job to one shard, chosen by hash of the workload
        so repeated tunes of one workload reuse that shard's warm state.

        No requeue on death: the search state lives in the shard, and
        replaying a half-run search elsewhere could double-count its
        simulation budget.  The client is told which restart to do.
        """
        workload = str(req.get("workload", ""))
        try:
            client, _ = parse_submit_fields(req)
            caller_span = parse_trace_fields(req)
        except ProtocolError as exc:
            await self._send_error(writer, exc)
            return
        try:
            shard = self._shards[
                self._healthy_ring().assign(f"tune/{workload}")]
        except _NoHealthyShards:
            await self._send_error(
                writer, "no healthy shards to run tune; restart shards "
                        "with 'repro serve'")
            return
        job = self._open_job("tune", workload, client or "anon", "bulk",
                             caller_span, [workload])
        try:
            async with self._shard_conn(shard,
                                        self._reparent(req, job.span),
                                        self.shard_read_timeout_s) as read:
                while True:
                    # Only shard I/O raises _ShardDown, so a *client*
                    # disconnect (ConnectionError from self._send below)
                    # is never misread as a shard death.
                    msg = await read()
                    kind = msg.get("type")
                    if kind == "accepted":
                        job.state = JobState.RUNNING
                    if "job" in msg:
                        msg["job"] = job.id
                    await self._send(writer, msg)
                    if kind == "done":
                        job.finish(JobState.DONE)
                        return
                    if kind == "error":
                        job.finish(JobState.FAILED,
                                   str(msg.get("error", "tune failed")))
                        return
        except _ShardDown as exc:
            self._mark_unhealthy(shard, str(exc))
            error = (f"shard {shard.id} died mid-tune ({exc}); tune jobs "
                     "are not requeued — evaluations it completed are warm "
                     "in the result store, so resubmit once a shard is "
                     "back")
            job.finish(JobState.FAILED, error)
            await self._send_error(writer, error, job.id)
        except (ConnectionError, asyncio.CancelledError):
            if not job.finished_state:
                job.finish(JobState.FAILED, "client disconnected")
            raise
        finally:
            if job.finished_state:
                self._log_job(job)
