"""The simulation service daemon.

One long-lived asyncio process owns what every one-shot CLI invocation
used to rebuild from scratch: a persistent
:class:`~repro.orchestrator.store.ResultStore` and a pre-warmed
:class:`~repro.orchestrator.parallel.OrchestratorPool`.  Clients connect
over local TCP, submit ``simulate``/``sweep``/``tune`` jobs as JSON
lines (see :mod:`repro.service.protocol`), and receive streamed
per-point results.

Three server-side guarantees:

* **Single-flight** — each distinct *sweep* traffic key simulates at
  most once, ever: warm keys answer from the store, and concurrent jobs
  wanting the same un-warmed key share one in-flight future instead of
  re-enqueuing.  (Tune jobs evaluate through the warm store and resident
  pool but do not consult the in-flight table, so a tune racing a sweep
  on the same cold key may duplicate that one simulation — results stay
  identical either way, simulations being deterministic.)
* **Cross-client batching** — the dispatcher drains whatever distinct
  points are queued (briefly waiting ``batch_window_s`` for stragglers)
  and ships them to the resident pool as one orchestrator batch, so N
  clients submitting disjoint grids still amortise pool dispatch.
* **Backpressure** — the simulation queue is bounded
  (``max_pending``); a job that out-runs the simulators blocks on
  enqueue instead of growing server memory, and cancellation stops its
  remaining enqueues.

Results are assembled through the exact serial runner path
(:func:`repro.baselines.runner.run_workload_config` over the warm
cache), so a streamed result is byte-identical to a direct engine run.
"""

from __future__ import annotations

import asyncio
import functools
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines import runner
from ..hw.config import MIB
from ..orchestrator.parallel import (PHASE_PROFILE_ENV, OrchestratorPool,
                                     prewarm, set_shared_pool)
from ..orchestrator.spec import SweepPoint
from ..orchestrator.store import ResultStore
from ..sim import engine as sim_engine
from ..workloads.registry import is_resolvable, resolve_workload
from .endpoint import Endpoint, Handler, JobCancelled
from .jobs import Job, JobState
from .metrics import DEFAULT_WINDOW_S, HistogramFamily, RateMeter
from .protocol import (
    DEFAULT_HOST,
    ERROR_OVERLOADED,
    PROTOCOL_VERSION,
    ProtocolError,
    default_port,
    parse_predict_fields,
    parse_submit_fields,
    parse_tune_fields,
)
from .reqlog import RequestLog
from .scheduling import (
    DEFAULT_BULK_THRESHOLD,
    TUNE_SHED_FRACTION,
    FairQueue,
    classify_priority,
)
from .tracing import SpanContext, parse_trace_fields


def _consume_exception(fut: "asyncio.Future[None]") -> None:
    """Done-callback that retrieves an abandoned future's exception so
    the event loop does not log 'exception was never retrieved'."""
    if not fut.cancelled():
        fut.exception()


class SimulationService(Endpoint):
    """The daemon behind ``repro serve``.

    Run it on the current event loop with :meth:`run`, or from a plain
    thread via ``asyncio.run(service.run())`` + :meth:`wait_started` /
    :meth:`request_stop` (how the loopback tests drive it).
    """

    NAME = "service"
    ROLE = "shard"

    def __init__(self,
                 host: str = DEFAULT_HOST,
                 port: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 use_store: bool = True,
                 jobs: Optional[int] = None,
                 max_pending: int = 1024,
                 batch_window_s: float = 0.02,
                 max_batch: int = 64,
                 keep_jobs: int = 256,
                 tune_heartbeat_s: float = 10.0,
                 quota: Optional[int] = None,
                 weights: Optional[Mapping[str, int]] = None,
                 bulk_threshold: int = DEFAULT_BULK_THRESHOLD,
                 request_log: Optional[RequestLog] = None,
                 metrics_window_s: float = DEFAULT_WINDOW_S,
                 prom_port: Optional[int] = None,
                 phase_profile: bool = False) -> None:
        super().__init__(host, default_port() if port is None else port,
                         keep_jobs, request_log, metrics_window_s,
                         prom_port)
        self.cache_dir = cache_dir
        self.use_store = use_store
        self.max_pending = max(1, max_pending)
        self.batch_window_s = max(0.0, batch_window_s)
        self.max_batch = max(1, max_batch)
        self.tune_heartbeat_s = max(0.1, tune_heartbeat_s)
        self.quota = quota
        self.weights = dict(weights or {})
        self.bulk_threshold = max(0, bulk_threshold)
        self.pool = OrchestratorPool(jobs)
        self.store: Optional[ResultStore] = None
        self.hits_total = 0
        self.coalesced_total = 0
        self.shed_total = 0
        self.phase_profile = phase_profile
        self._sims_meter = RateMeter(metrics_window_s)
        self._analytic_meter = RateMeter(metrics_window_s)
        self._phases = HistogramFamily(("phase",))
        self._queue = FairQueue(self.max_pending, quota=quota,
                                weights=self.weights)
        #: Traffic keys with a simulation dispatched or queued, mapped to
        #: the future every interested job awaits (single-flight table).
        self._in_flight: Dict[str, "asyncio.Future[None]"] = {}

    def _routes(self) -> Dict[str, Handler]:
        return {
            **super()._routes(),
            "stats": self._handle_stats,
            "predict": self._handle_predict,
            "tune": self._tune_job,
            "simulate": self._sweep_job,
            "sweep": self._sweep_job,
            "points": self._sweep_job,
        }

    # -- lifecycle -------------------------------------------------------------

    async def _start_role(self) -> List["asyncio.Task[None]"]:
        assert self._loop is not None
        self.store = ResultStore(self.cache_dir) if self.use_store else None
        runner.set_store(self.store)
        set_shared_pool(self.pool)
        if self.phase_profile:
            # Env before fork: workers inherit the flag and ship their
            # phase timings back; the hook folds them (and every
            # in-process engine run) into the phase histograms.
            os.environ[PHASE_PROFILE_ENV] = "1"
            sim_engine.set_phase_hook(self._observe_phase)
        if self.pool.jobs > 1:
            # Fork the workers before accepting work; a sandbox without
            # pool support degrades here, once, to all-serial batches.
            await self._loop.run_in_executor(None, self.pool.warm)
        return [asyncio.create_task(self._dispatch_loop())]

    def _close_role(self) -> None:
        self._fail_pending("service shut down")
        if self.phase_profile:
            sim_engine.set_phase_hook(None)
            os.environ.pop(PHASE_PROFILE_ENV, None)
        if self.store is not None:
            self.store.save_stats()
        runner.set_store(None)
        set_shared_pool(None)
        self.pool.close()

    def _announce_details(self) -> str:
        width = self.pool.jobs if not self.pool.broken else 1
        store_desc = (str(self.store.directory) if self.store is not None
                      else "disabled")
        return f"pool: {width} worker(s), store: {store_desc}"

    def _fail_pending(self, reason: str) -> None:
        for fut in self._in_flight.values():
            if not fut.done():
                fut.add_done_callback(_consume_exception)
                fut.set_exception(RuntimeError(reason))
        self._in_flight.clear()

    # -- query ops -------------------------------------------------------------

    async def _handle_stats(self, req: Dict[str, object],
                            writer: asyncio.StreamWriter,
                            span: Optional[SpanContext]) -> None:
        store_stats: Optional[Dict[str, object]] = None
        if self.store is not None:
            # Merge records other processes appended to the shared cache
            # directory since we last looked — a one-shot `repro sweep`
            # racing the daemon warms us too.  Both the O(file) rescan
            # and the O(entries) per-workload counting run off the event
            # loop.
            assert self._loop is not None
            store_stats = await self._loop.run_in_executor(
                None, self._store_stats)
        await self._send(writer, {
            "type": "stats",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": self._uptime_s(),
            "jobs": self.registry.counts_by_state(),
            "points_streamed": self.points_streamed,
            "simulations": runner.simulation_count(),
            "hits_total": self.hits_total,
            "coalesced_total": self.coalesced_total,
            "shed_total": self.shed_total,
            "queue_depth": self._queue.qsize(),
            "in_flight": len(self._in_flight),
            "pool": self.pool.snapshot(),
            "store": store_stats,
        })

    def _topology_fields(self) -> Dict[str, object]:
        """A plain daemon describes itself as one shard."""
        return {
            "workers": self.pool.jobs if not self.pool.broken else 1,
            "in_flight": len(self._in_flight),
            "queue_depth": self._queue.qsize(),
            "store": (str(self.store.directory)
                      if self.store is not None else None),
        }

    async def _handle_predict(self, req: Dict[str, object],
                              writer: asyncio.StreamWriter,
                              span: Optional[SpanContext]) -> None:
        """Analytic prediction: single response, never enters the queue
        or the pool — the whole point of the op is to skip them."""
        assert self._loop is not None
        try:
            fields = parse_predict_fields(req)
            workload = str(fields["workload"])
            if not is_resolvable(workload):
                raise ProtocolError(
                    f"unknown workload {workload!r}; see 'repro "
                    "list-workloads'")
        except ProtocolError as exc:
            await self._send_error(writer, exc)
            return
        try:
            # Model compilation can take a few milliseconds the first
            # time; keep the event loop responsive.
            evaluation = await self._loop.run_in_executor(
                None, functools.partial(self._predict, fields))
        except Exception as exc:
            await self._send_error(writer, exc)
            return
        self._analytic_meter.record(1)
        await self._send(writer, {
            "type": "predict",
            "workload": fields["workload"],
            "config": fields["config"],
            "regime": evaluation.regime,
            "fidelity": "analytic",
            "result": evaluation.result.to_dict(),
        })

    @staticmethod
    def _predict(fields: Dict[str, object]):
        import dataclasses

        from ..analytic import AnalyticUnsupported, predict_workload_config
        from ..hw.config import default_config

        cfg = default_config(None).with_sram(int(fields["sram_bytes"]))  # type: ignore[arg-type]
        overrides: Dict[str, object] = {}
        if fields["bandwidth_bytes_per_s"] is not None:
            overrides["dram_bandwidth_bytes_per_s"] = float(
                fields["bandwidth_bytes_per_s"])  # type: ignore[arg-type]
        if fields["entries"] is not None:
            overrides["chord_entries"] = int(fields["entries"])  # type: ignore[arg-type]
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)  # type: ignore[arg-type]
        try:
            return predict_workload_config(
                resolve_workload(str(fields["workload"])),
                str(fields["config"]), cfg)
        except AnalyticUnsupported as exc:
            raise RuntimeError(
                f"{exc}; submit a 'simulate' job for exact results"
            ) from exc

    def _store_stats(self) -> Dict[str, object]:
        """Store view for the stats op; runs on an executor thread."""
        assert self.store is not None
        self.store.reload()
        return {
            "directory": str(self.store.directory),
            "schema_version": self.store.schema_version,
            "entries": len(self.store),
            "corrupt": self.store.corrupt,
            "workloads": self.store.workload_counts(),
        }

    def _metrics_fields(self) -> Dict[str, object]:
        store: Optional[Dict[str, object]] = None
        if self.store is not None:
            lookups = self.store.hits + self.store.misses
            store = {
                "entries": len(self.store),
                "hits": self.store.hits,
                "misses": self.store.misses,
                "hit_rate": round(self.store.hits / lookups, 4)
                if lookups else 0.0,
                "corrupt": self.store.corrupt,
                "stale": self.store.stale,
                "duplicates": self.store.duplicates,
            }
        return {
            "queue_depth": self._queue.qsize(),
            "max_pending": self.max_pending,
            "queue_clients": self._queue.client_depths(),
            "in_flight": len(self._in_flight),
            "points_streamed": self.points_streamed,
            "simulations": runner.simulation_count(),
            "hits_total": self.hits_total,
            "coalesced_total": self.coalesced_total,
            "shed_total": self.shed_total,
            "jobs": self.registry.counts_by_state(),
            "rates": {
                "window_s": self._sims_meter.window_s,
                "sims_per_s": round(self._sims_meter.rate(), 4),
                "points_per_s": round(self._points_meter.rate(), 4),
                "analytic_evals_per_s":
                    round(self._analytic_meter.rate(), 4),
            },
            "latency": self._latency.snapshot(),
            "phases": self._phases.snapshot(),
            "store": store,
        }

    def _observe_phase(self, phase: str, seconds: float) -> None:
        """Engine phase hook (``--phase-profile``): called in-process by
        the engines and replayed from pool-worker payloads."""
        self._phases.observe((phase,), seconds)

    # -- sweep jobs ------------------------------------------------------------

    async def _sweep_job(self, req: Dict[str, object],
                         writer: asyncio.StreamWriter,
                         span: Optional[SpanContext]) -> None:
        sweep = await self._parse_sweep(req, writer)
        if sweep is None:
            return
        points = sweep.points
        priority = classify_priority(sweep.priority, len(points),
                                     self.bulk_threshold)
        await self._sync_store(points)
        job = self._open_job(str(req["op"]), sweep.summary, sweep.client,
                             priority, sweep.caller,
                             (p.workload for p in points), total=len(points))
        if priority == "bulk" and self._queue.free_slots(job.client) <= 0:
            # Tiered shedding: bulk work is refused while the client has
            # no free capacity at admission.  Interactive submissions are
            # never shed — they block on the bounded queue like before.
            await self._shed(job, writer,
                             self._queue.overload_reason(job.client),
                             self._queue.retry_after_s())
            return
        futures: Dict[str, asyncio.Future] = {}

        async def body(waiter: "asyncio.Future[object]") -> None:
            try:
                await self._claim_points(job, points, futures)
                await self._stream_results(job, points, futures, waiter,
                                           writer)
            except BaseException:
                # The job stops awaiting these futures (cancel, failure,
                # disconnect); late exceptions must still be retrieved.
                for fut in futures.values():
                    fut.add_done_callback(_consume_exception)
                raise

        await self._run_job(job, writer, body)

    async def _shed(self, job: Job, writer: asyncio.StreamWriter,
                    reason: str, retry_after_s: float) -> None:
        """Refuse a submission with a typed ``overloaded`` error."""
        self.shed_total += 1
        error = f"overloaded: {reason}"
        job.finish(JobState.FAILED, error)
        self._log_job(job, outcome="shed")
        await self._send(writer, {
            "type": "error", "job": job.id, "code": ERROR_OVERLOADED,
            "error": error, "retry_after_s": retry_after_s})

    async def _sync_store(self, points: Sequence[SweepPoint]) -> None:
        """Store-shard sync: merge records other writers appended before
        claiming any cold key.

        In a sharded fabric several daemons append to one cache
        directory; a key this shard never simulated may already be warm
        on disk — most importantly after a requeue, where a dying
        shard's last results land in the file but not in any survivor's
        index.  One first-record-wins :meth:`ResultStore.reload` (off
        the event loop) turns those into hits instead of duplicate
        simulations.  Jobs whose every key is already warm skip the
        O(file) rescan.
        """
        if self.store is None:
            return
        if all(runner.peek(p.key()) is not None for p in points):
            return
        assert self._loop is not None
        await self._loop.run_in_executor(None, self.store.reload)

    async def _claim_points(self, job: Job, points: Sequence[SweepPoint],
                            futures: Dict[str, "asyncio.Future[None]"],
                            ) -> None:
        """Classify each distinct traffic key (warm hit / coalesced /
        fresh) and enqueue the fresh ones, respecting backpressure.

        Fills the caller's ``futures`` dict in place so that keys claimed
        before a mid-claim cancellation still reach ``_abandon``.
        """
        assert self._loop is not None
        for p in points:
            ks = ResultStore.key_str(p.key())
            if ks in futures:
                continue  # bandwidth variant of a point already claimed
            if runner.peek(p.key()) is not None:
                done: asyncio.Future = self._loop.create_future()
                done.set_result(None)
                futures[ks] = done
                job.hits += 1
                self.hits_total += 1
                continue
            existing = self._in_flight.get(ks)
            if existing is not None:
                futures[ks] = existing
                job.coalesced += 1
                self.coalesced_total += 1
                continue
            if job.cancelled:
                raise JobCancelled
            fut: asyncio.Future = self._loop.create_future()
            self._in_flight[ks] = fut
            futures[ks] = fut
            # May block on the bounded queue; the entry is tiny and the
            # dispatcher always drains, so a cancel arriving mid-put only
            # stops *subsequent* enqueues (checked at loop top).
            await self._queue.put((ks, p), client=job.client,
                                  priority=job.priority)
            job.simulations += 1

    async def _stream_results(self, job: Job, points: Sequence[SweepPoint],
                              futures: Dict[str, "asyncio.Future[None]"],
                              waiter: "asyncio.Future[object]",
                              writer: asyncio.StreamWriter) -> None:
        for index, p in enumerate(points):
            fut = futures[ResultStore.key_str(p.key())]
            if not fut.done():
                await asyncio.wait({fut, waiter},
                                   return_when=asyncio.FIRST_COMPLETED)
            if not fut.done():
                # The cancel waiter fired first: abandon the remaining
                # stream.  In-flight keys still resolve and warm the
                # store for everyone else.
                raise JobCancelled
            fut.result()  # re-raises this key's simulation error, if any
            # Assemble through the standard serial path: the base result
            # is warm, so this only re-times for this point's bandwidth —
            # byte-identical to a direct engine run.
            result = runner.run_workload_config(
                resolve_workload(p.workload), p.config, p.cfg,
                cache_granularity=p.cache_granularity)
            job.done = index + 1
            self.points_streamed += 1
            self._points_meter.record(1)
            await self._send(writer, {
                "type": "result", "job": job.id, "index": index,
                "done": job.done, "total": job.total,
                "point": {
                    "workload": p.workload,
                    "config": p.config,
                    "sram_bytes": p.cfg.sram_bytes,
                    "bandwidth_bytes_per_s":
                        p.cfg.dram_bandwidth_bytes_per_s,
                    "cache_granularity": p.cache_granularity,
                },
                "result": result.to_dict(),
            })
            if job.cancelled:
                raise JobCancelled

    # -- the batch dispatcher --------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain queued points into shared orchestrator batches, forever."""
        assert self._loop is not None
        while True:
            batch: List[Tuple[str, SweepPoint]] = [await self._queue.get()]
            if self.batch_window_s > 0:
                # A short gather window lets concurrently-submitting
                # clients land in the same pool batch.
                await asyncio.sleep(self.batch_window_s)
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                outcome = await self._loop.run_in_executor(
                    None, functools.partial(self._execute_batch, batch))
            except asyncio.CancelledError:
                raise  # dispatcher shutdown; run() fails pending futures
            except BaseException as exc:
                # The dispatcher is the service's single heart — whatever
                # leaks out of a batch must fail that batch, never the
                # loop itself.
                outcome = {ks: exc for ks, _ in batch}
            self._sims_meter.record(
                sum(1 for ks, _ in batch if outcome.get(ks) is None))
            for ks, _ in batch:
                fut = self._in_flight.pop(ks, None)
                if fut is None or fut.done():
                    continue
                exc = outcome.get(ks)
                if exc is None:
                    fut.set_result(None)
                else:
                    fut.set_exception(exc)

    def _execute_batch(self, batch: Sequence[Tuple[str, SweepPoint]]
                       ) -> Dict[str, Optional[BaseException]]:
        """Simulate one batch on a worker thread; per-key error capture.

        The fast path is one :func:`prewarm` through the resident pool;
        if any point errors there, re-run per point serially so one bad
        point fails only its own key.  A pool batch that failed mid-way
        seeded nothing, so the serial retry re-simulates the whole batch
        (each success now caching as it lands) — acceptable for what is
        a rare engine-bug path, and the dispatcher stalls only for this
        batch's duration.
        """
        points = [p for _, p in batch]
        outcome: Dict[str, Optional[BaseException]] = {}
        try:
            prewarm(points, pool=self.pool)
            for ks, _ in batch:
                outcome[ks] = None
            return outcome
        except BaseException:
            # Includes CancelledError (a BaseException): a concurrent
            # user of the shared pool marking it broken cancels our
            # pending map futures — the serial retry below, which needs
            # no pool, is exactly the right response.
            pass
        for ks, p in batch:
            try:
                runner.run_workload_config(
                    resolve_workload(p.workload), p.config, p.cfg,
                    cache_granularity=p.cache_granularity)
                outcome[ks] = None
            except Exception as exc:
                outcome[ks] = exc
        return outcome

    # -- tune jobs -------------------------------------------------------------

    async def _tune_job(self, req: Dict[str, object],
                        writer: asyncio.StreamWriter,
                        span: Optional[SpanContext]) -> None:
        assert self._loop is not None
        from ..tuner import TuneSpace, make_strategy, tune
        from ..tuner.pareto import DEFAULT_OBJECTIVES

        try:
            client, _ = parse_submit_fields(req)
            caller_span = parse_trace_fields(req)
            fields = parse_tune_fields(req)
            workload = str(fields["workload"])
            if not is_resolvable(workload):
                raise ProtocolError(
                    f"unknown workload {workload!r}; see 'repro "
                    "list-workloads'")
            strategy = make_strategy(
                str(fields["strategy"]),
                budget=int(fields["budget"]),  # type: ignore[arg-type]
                seed=int(fields["seed"]))      # type: ignore[arg-type]
            objectives = tuple(
                fields["objectives"] or DEFAULT_OBJECTIVES)  # type: ignore[arg-type]
            space = TuneSpace(
                chord_entries=tuple(fields["entries"]),  # type: ignore[arg-type]
                sram_bytes=tuple(int(m * MIB)
                                 for m in fields["sram_mb"]),  # type: ignore[union-attr]
                cache_policies=("LRU", "BRRIP", "SRRIP")
                if fields["include_baselines"] else (),
            )
        except (ProtocolError, KeyError, ValueError, TypeError) as exc:
            await self._send_error(writer, exc)
            return

        job = self._open_job("tune", workload, client or "anon", "bulk",
                             caller_span, [workload])
        shed_at = max(1, int(self.max_pending * TUNE_SHED_FRACTION))
        if self._queue.qsize() >= shed_at:
            # Lowest shedding tier: a tune search occupies a worker
            # thread for its whole run, so it is refused well before the
            # queue is full.
            await self._shed(job, writer,
                             f"queue at {self._queue.qsize()}/"
                             f"{self.max_pending}; tune searches are "
                             "shed first under load",
                             self._queue.retry_after_s())
            return
        await self._send_accepted(writer, job)
        job.state = JobState.RUNNING
        # The search runs on a worker thread; prewarm() inside the tuner
        # picks up the resident pool via the shared-pool hook.  While it
        # runs, the client receives heartbeat progress lines so a long
        # search does not starve its per-read socket timeout.
        fn = functools.partial(tune, workload, space=space,
                               strategy=strategy, objectives=objectives,
                               jobs=self.pool.jobs,
                               fidelity=str(fields["fidelity"]))
        search = self._loop.run_in_executor(None, fn)
        try:
            while True:
                done_set, _ = await asyncio.wait(
                    {search}, timeout=self.tune_heartbeat_s)
                if done_set:
                    break
                await self._send(writer, {
                    "type": "progress", "job": job.id, "done": 0,
                    "total": 0, "heartbeat": True,
                    "elapsed_s": round(job.elapsed_s(), 3)})
            tune_result = search.result()
        except (ConnectionError, asyncio.CancelledError):
            job.finish(JobState.FAILED, "client disconnected")
            self._log_job(job)
            search.add_done_callback(_consume_exception)
            raise
        except Exception as exc:  # search or simulation failure
            job.finish(JobState.FAILED, str(exc))
            self._log_job(job)
            await self._send_error(writer, exc, job.id)
            return
        job.total = job.done = len(tune_result.evaluations)
        # The tuner derives n_simulations from the process-global counter;
        # a concurrent cold sweep inflates that delta, so clamp to keep
        # the job table and the hits partition sane.
        job.simulations = min(tune_result.n_simulations, job.total)
        job.hits = job.total - job.simulations
        # Tune simulations bypass the dispatcher (the search drives the
        # pool directly), so meter them here; analytic evaluations are
        # the search's model-only probes.
        self._sims_meter.record(job.simulations)
        self._analytic_meter.record(
            int(getattr(tune_result, "n_analytic", 0)))
        try:
            try:
                await self._send(writer,
                                 {"type": "tune-result", "job": job.id,
                                  "result": tune_result.to_dict()})
            except ProtocolError as exc:
                # A huge --budget can push the serialised result past the
                # line bound; report it instead of dropping the connection.
                error = (f"tune result too large for the wire "
                         f"({len(tune_result.evaluations)} evaluations): "
                         f"{exc}")
                job.finish(JobState.FAILED, error)
                self._log_job(job)
                await self._send_error(writer, error, job.id)
                return
            job.finish(JobState.DONE)
            self._log_job(job)
            await self._send(writer, self._done_msg(job))
        except (ConnectionError, asyncio.CancelledError):
            # Disconnect during delivery: never leave the job RUNNING.
            if not job.finished_state:
                job.finish(JobState.FAILED, "client disconnected")
                self._log_job(job)
            raise
