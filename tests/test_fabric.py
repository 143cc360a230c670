"""End-to-end tests for the sharded simulation fabric: a gateway over
real ``repro serve`` subprocesses, with faults injected by the
:mod:`fabric` chaos harness.

Two layers:

* ``TestGatewayFabric`` — one healthy 3-shard fabric shared by the
  module: byte-identity against the direct engines, cluster-wide
  single-flight, the v4 ``points``/``topology`` ops, predict/tune
  forwarding, and listener fuzzing.
* ``TestChaos`` — one fabric per test, each broken differently: shard
  SIGKILLed mid-stream, connection dropped mid-stream, acks delayed past
  the gateway's read timeout, and a fabric with no live shards at all.
  Every chaos test pins the same three invariants: the job still
  completes with every point, ``requeued`` says so, and the shared store
  holds exactly one record per distinct traffic key (no duplicate
  simulations, ever).
"""

import io
import json
import socket
import threading
import time

import pytest

from fabric import (
    Fabric,
    GatewayThread,
    busiest_proxy,
    distinct_keys,
    duplicate_store_keys,
    fuzz_exchange,
    fuzz_payloads,
    store_record_keys,
)
from repro.baselines.configs import run_config
from repro.hw.config import GB, MIB, AcceleratorConfig
from repro.orchestrator.spec import SweepSpec
from repro.orchestrator.store import ResultStore
from repro.service import JobFailed, RequestLog, ServiceError
from repro.service.protocol import PROTOCOL_VERSION
from repro.workloads.registry import resolve_workload
from test_service import (
    BANDWIDTH_GB,
    CONFIGS,
    DISTINCT_KEYS,
    WORKLOAD,
    _reset_runner,
    expected_results,
)

#: The chaos grid: 4 workloads x 2 configs x 1 bandwidth = 8 points with
#: 8 distinct traffic keys, so every point is its own simulation and a
#: busiest-of-3 victim owns >= 3 of them (pigeonhole).
CHAOS_WORKLOADS = ("cg/fv1/N=1", "bicgstab/fv1/N=1", "gnn/cora",
                   "mg/fv1/N=1")
CHAOS_CONFIGS = ("Flexagon", "CELLO")
CHAOS_BANDWIDTH_GB = 1000.0
CHAOS_POINTS = 8


def chaos_points():
    """The same points the gateway will build from the chaos request —
    used to compute the real ring assignment before picking a victim."""
    return SweepSpec(workloads=CHAOS_WORKLOADS, configs=CHAOS_CONFIGS,
                     bandwidths=(CHAOS_BANDWIDTH_GB * GB,)).points()


def submit_chaos(client):
    return client.submit_sweep(
        list(CHAOS_WORKLOADS), configs=list(CHAOS_CONFIGS),
        bandwidth_gb=[CHAOS_BANDWIDTH_GB])


def fingerprint(outcome):
    """Order-sensitive byte-level identity of a sweep outcome."""
    return [(p.workload, p.config, p.bandwidth_bytes_per_s,
             json.dumps(p.result.to_dict(), sort_keys=True))
            for p in outcome.points]


def wait_until(predicate, timeout_s=15.0, interval_s=0.2):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def fabric3(tmp_path_factory):
    """One healthy 3-shard fabric shared by the non-chaos tests."""
    cache = tmp_path_factory.mktemp("fabric-cache")
    with Fabric(str(cache), n_shards=3) as fab:
        yield fab


class TestGatewayFabric:
    def test_ping_names_the_gateway_and_counts_shards(self, fabric3):
        with fabric3.client() as client:
            pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["protocol"] == PROTOCOL_VERSION
        assert pong["server"] == "repro-gateway"
        assert pong["shards_healthy"] == 3
        assert pong["shards_total"] == 3

    def test_topology_reports_the_ring_and_every_shard(self, fabric3):
        with fabric3.client() as client:
            topo = client.topology()
        assert topo["type"] == "topology"
        assert topo["role"] == "gateway"
        assert topo["protocol"] == PROTOCOL_VERSION
        assert topo["replicas"] == 64
        shards = {s["id"]: s for s in topo["shards"]}
        assert set(shards) == {p.id for p in fabric3.proxies}
        assert all(s["healthy"] and s["protocol"] == PROTOCOL_VERSION
                   for s in shards.values())

    def test_merged_stream_byte_identical_to_direct_engine(self, fabric3):
        """The acceptance bar: a gateway over 3 shards answers the
        standard grid byte-identically to the engines, with exactly one
        simulation per distinct traffic key, and a warm resubmit
        re-simulates nothing."""
        with fabric3.client() as client:
            cold = client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                                       bandwidth_gb=list(BANDWIDTH_GB))
            warm = client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                                       bandwidth_gb=list(BANDWIDTH_GB))
        assert cold.simulations == DISTINCT_KEYS
        assert cold.hits == 0 and cold.requeued == 0
        got = [json.dumps(p.result.to_dict(), sort_keys=True)
               for p in cold.points]
        want = [json.dumps(r.to_dict(), sort_keys=True)
                for r in expected_results()]
        assert got == want  # merged stream preserves submission order
        assert warm.simulations == 0
        assert warm.hits == DISTINCT_KEYS
        assert fingerprint(warm) == fingerprint(cold)
        assert duplicate_store_keys(fabric3.results_file()) == []

    def test_concurrent_clients_single_flight_across_the_cluster(
            self, fabric3):
        """Cluster-wide single flight: identical grids from concurrent
        clients route each key to the same shard, where the shard-local
        dedup makes the whole fabric simulate it exactly once."""
        grid = dict(workloads=["mg/fv1/N=1", "gnn/cora"],
                    configs=["Flexagon", "CELLO"],
                    bandwidth_gb=[CHAOS_BANDWIDTH_GB])
        n_keys = 4
        n_clients = 3
        outcomes = [None] * n_clients
        errors = []

        def worker(i):
            try:
                with fabric3.client() as client:
                    outcomes[i] = client.submit_sweep(
                        grid["workloads"], configs=grid["configs"],
                        bandwidth_gb=grid["bandwidth_gb"])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert all(o is not None for o in outcomes)
        assert sum(o.simulations for o in outcomes) == n_keys
        for o in outcomes:
            assert o.simulations + o.hits + o.coalesced == n_keys
        reference = fingerprint(outcomes[0])
        for o in outcomes[1:]:
            assert fingerprint(o) == reference
        assert duplicate_store_keys(fabric3.results_file()) == []

    def test_points_op_streams_in_submission_order(self, fabric3):
        """An explicit v4 point list through the gateway: results come
        back in the submitted order even though the points scatter
        across shards, and match the direct engines byte for byte."""
        points = SweepSpec(
            workloads=(WORKLOAD,), configs=CONFIGS,
            bandwidths=tuple(bw * GB for bw in BANDWIDTH_GB)).points()
        with fabric3.client() as client:
            outcome = client.submit_points(points)
        assert [(p.workload, p.config, p.bandwidth_bytes_per_s)
                for p in outcome.points] \
            == [(p.workload, p.config, p.cfg.dram_bandwidth_bytes_per_s)
                for p in points]
        got = [json.dumps(p.result.to_dict(), sort_keys=True)
               for p in outcome.points]
        want = [json.dumps(r.to_dict(), sort_keys=True)
                for r in expected_results()]
        assert got == want

    def test_jobs_stats_and_cancel_through_the_gateway(self, fabric3):
        with fabric3.client() as client:
            outcome = client.submit_sweep([WORKLOAD],
                                          configs=list(CONFIGS),
                                          bandwidth_gb=[1000.0])
            jobs = {j["id"]: j for j in client.jobs()}
            stats = client.stats()
            with pytest.raises(ServiceError, match="unknown job"):
                client.cancel("j999")
        assert outcome.job_id in jobs
        assert jobs[outcome.job_id]["state"] == "done"
        assert stats["type"] == "stats"
        assert stats["role"] == "gateway"
        assert stats["shards_healthy"] == 3
        assert stats["points_streamed"] >= len(outcome.points)

    def test_predict_forwarded_to_a_shard(self, fabric3):
        with fabric3.client() as client:
            reply = client.predict(WORKLOAD, "CELLO")
            with pytest.raises(ServiceError, match="no analytic model"):
                client.predict(WORKLOAD, "Flex+LRU")
        assert reply["type"] == "predict"
        assert reply["fidelity"] == "analytic"
        workload = resolve_workload(WORKLOAD)
        direct = run_config("CELLO", workload.build(), AcceleratorConfig(),
                            workload_name=workload.name,
                            cache_granularity=None)
        assert reply["result"]["dram_read_bytes"] == direct.dram_read_bytes
        assert reply["result"]["dram_write_bytes"] == direct.dram_write_bytes

    def test_tune_forwarded_matches_direct_tuner(self, fabric3):
        from repro.tuner import TuneResult, TuneSpace, make_strategy, tune

        with fabric3.client() as client:
            data = client.submit_tune(WORKLOAD, strategy="grid",
                                      sram_mb=(4.0,), entries=(64,))
        via_gateway = TuneResult.from_dict(data)
        _reset_runner()  # the direct run below must not inherit state
        try:
            direct = tune(
                WORKLOAD,
                space=TuneSpace(chord_entries=(64,), sram_bytes=(4 * MIB,)),
                strategy=make_strategy("grid"), jobs=1)
        finally:
            _reset_runner()
        assert via_gateway.workload == direct.workload
        assert len(via_gateway.evaluations) == len(direct.evaluations)
        assert [dict(e.objectives) for e in via_gateway.evaluations] \
            == [dict(e.objectives) for e in direct.evaluations]
        assert via_gateway.incumbent.config == direct.incumbent.config

    def test_gateway_survives_hostile_frames(self, fabric3):
        """Every fuzz frame gets a JSON error (never a crash, never a
        hang), and the gateway still routes real work afterwards."""
        for payload in fuzz_payloads():
            replies = fuzz_exchange(fabric3.gateway.port, payload)
            if any(line.strip() for line in payload.split(b"\n")):
                assert replies, f"no reply to {payload[:40]!r}"
            assert all(r.get("type") == "error" for r in replies), payload
        with fabric3.client() as client:
            pong = client.ping()
        assert pong["shards_healthy"] == 3


    @pytest.mark.parametrize("role", ["serve", "gateway"])
    @pytest.mark.parametrize("kind, refusal", [
        ("sweep", "already done"),
        ("tune", "tune jobs cannot be cancelled"),
    ])
    def test_cancel_refusals_on_both_roles(self, fabric3, role, kind,
                                           refusal):
        """Both roles answer ``cancel`` through one shared handler: a
        finished sweep is ``already done`` and a tune job can never be
        cancelled."""
        from repro.service import ServiceClient

        port = (fabric3.gateway.port if role == "gateway"
                else fabric3.shards[0].port)
        with ServiceClient(port=port, timeout=120.0) as client:
            if kind == "sweep":
                client.submit_sweep([WORKLOAD], configs=["CELLO"],
                                    bandwidth_gb=[1000.0])
            else:
                client.submit_tune(WORKLOAD, strategy="grid",
                                   sram_mb=(4.0,), entries=(64,))
            job_id = [j["id"] for j in client.jobs()
                      if j["kind"] == kind][-1]
            with pytest.raises(ServiceError, match=refusal):
                client.cancel(job_id)


def test_both_roles_route_every_protocol_op():
    """Each role's op table covers exactly the protocol's ops, so no
    request the parser accepts can miss a handler."""
    from repro.service import GatewayService, SimulationService
    from repro.service.protocol import KNOWN_OPS

    gateway = GatewayService([("127.0.0.1", 1)])
    service = SimulationService(jobs=1)
    assert set(gateway._handlers) == set(KNOWN_OPS)
    assert set(service._handlers) == set(KNOWN_OPS)


def test_traced_predict_nests_client_gateway_shard(tmp_path):
    """A forwarded ``predict`` is reparented: the shard's span hangs off
    the gateway's span, which hangs off the client's root span."""
    shard_log = tmp_path / "shard_logs.jsonl"
    gw_stream = io.StringIO()
    fab = Fabric(str(tmp_path / "cache"), n_shards=1,
                 request_log=RequestLog(gw_stream),
                 shard_args=["--log-json", str(shard_log)])
    with fab:
        with fab.client(trace=True) as client:
            reply = client.predict(WORKLOAD, "CELLO")
            trace_id = client.last_trace_id
    # The gateway logs after replying: read only once the fabric stopped.
    assert reply["type"] == "predict"
    gateway = next(json.loads(line)
                   for line in gw_stream.getvalue().splitlines()
                   if json.loads(line)["op"] == "predict")
    shard = next(json.loads(line)
                 for line in shard_log.read_text().splitlines()
                 if json.loads(line)["op"] == "predict")
    assert gateway["trace_id"] == shard["trace_id"] == trace_id
    assert shard["parent_span"] == gateway["span_id"]
    assert gateway["parent_span"] != gateway["span_id"]


def test_gateway_admits_only_shards_of_its_own_protocol(tmp_path):
    """A shard pinging another protocol version stays out of the ring,
    with the version mismatch as its topology error."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    old = PROTOCOL_VERSION - 1

    def answer_pings():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.recv(1024)
                conn.sendall(json.dumps({
                    "type": "pong", "server": "repro-service",
                    "protocol": old}).encode() + b"\n")

    threading.Thread(target=answer_pings, daemon=True).start()
    try:
        with GatewayThread([listener.getsockname()],
                           health_interval_s=30.0) as gw:
            with gw.client() as client:
                topo = client.topology()
                with pytest.raises(JobFailed, match="no healthy shards"):
                    client.submit_sweep([WORKLOAD], configs=["CELLO"])
    finally:
        listener.close()
    shard = topo["shards"][0]
    assert shard["healthy"] is False
    assert shard["protocol"] == old
    assert shard["error"] == (f"speaks protocol v{old}, gateway needs "
                              f"v{PROTOCOL_VERSION}")


class TestChaos:
    """One fabric per test; each test breaks it a different way."""

    def _arm(self, tmp_path, **gateway_kwargs):
        """Build a fabric for the chaos grid and return it with the
        index of the proxy that owns the most points (the victim)."""
        points = chaos_points()
        assert len(points) == CHAOS_POINTS
        assert distinct_keys(points) == CHAOS_POINTS
        gateway_kwargs.setdefault("ping_timeout_s", 2.0)
        gateway_kwargs.setdefault("health_interval_s", 0.5)
        fab = Fabric(str(tmp_path / "cache"), n_shards=3, **gateway_kwargs)
        victim = busiest_proxy(fab.proxies, points)
        return fab, victim, points

    def _check_store_exactly_once(self, fab, points):
        """The no-duplicate-work invariant, from the store's own record:
        exactly one append per distinct traffic key."""
        assert duplicate_store_keys(fab.results_file()) == []
        assert set(store_record_keys(fab.results_file())) \
            == {ResultStore.key_str(p.key()) for p in points}

    def test_killed_shard_mid_sweep_requeues_without_duplicates(
            self, tmp_path):
        """The flagship chaos run: SIGKILL the busiest shard right after
        its first streamed result.  The sweep must still complete with
        all 8 points, report the re-hashed remainder, and a warm
        resubmit must re-run zero simulations."""
        fab, victim, points = self._arm(tmp_path)
        fab.proxies[victim].plan.kill_after_results = 1
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
                warm = submit_chaos(client)
                topo = client.topology()
        assert not fab.shards[victim].alive
        assert len(out.points) == CHAOS_POINTS
        assert len(set(fingerprint(out))) == CHAOS_POINTS
        # The victim owned >= 3 keys (busiest of 3 shards over 8 keys)
        # and streamed exactly 1 before dying: >= 2 must be re-hashed.
        assert out.requeued >= 2
        assert warm.requeued == 0
        assert warm.simulations == 0  # nothing was simulated twice
        assert warm.hits == CHAOS_POINTS
        assert fingerprint(warm) == fingerprint(out)
        self._check_store_exactly_once(fab, points)
        assert topo["requeued_total"] == out.requeued
        health = {s["id"]: s["healthy"] for s in topo["shards"]}
        assert health[fab.proxies[victim].id] is False
        assert sum(health.values()) == 2

    def test_trace_id_spans_every_hop_including_the_requeue(
            self, tmp_path):
        """One traced submission through a dying fabric: the client's
        trace_id appears on the gateway's sweep record, on the requeue
        record the gateway mints when the victim dies, and in the shard
        processes' own request logs — with parent_span links forming the
        hop tree client → gateway → (shards | requeue → survivors)."""
        shard_log = tmp_path / "shard_logs.jsonl"
        gw_stream = io.StringIO()
        fab, victim, points = self._arm(
            tmp_path, request_log=RequestLog(gw_stream),
            shard_args=["--log-json", str(shard_log)])
        fab.proxies[victim].plan.kill_after_results = 1
        with fab:
            with fab.client(client_id="tracer", trace=True) as client:
                out = submit_chaos(client)
        assert len(out.points) == CHAOS_POINTS
        assert out.requeued >= 2
        assert out.trace_id is not None

        gw_records = [json.loads(line) for line in
                      gw_stream.getvalue().splitlines() if line]
        sweep = next(r for r in gw_records if r["op"] == "sweep")
        assert sweep["trace_id"] == out.trace_id
        assert sweep["outcome"] == "done"
        # the gateway span hangs off the client's root span
        assert sweep["parent_span"]
        requeue = next(r for r in gw_records if r["op"] == "requeue")
        assert requeue["trace_id"] == out.trace_id
        assert requeue["parent_span"] == sweep["span_id"]
        assert requeue["points"] >= 2
        assert f"shard {fab.proxies[victim].id}" in requeue["error"]

        shard_records = [json.loads(line) for line in
                         shard_log.read_text().splitlines() if line]
        hops = [r for r in shard_records
                if r.get("trace_id") == out.trace_id]
        assert hops, "no shard record carried the client's trace id"
        parents = {r["parent_span"] for r in hops}
        # primary partitions hang off the gateway's sweep span; the
        # failover partitions hang off the requeue span it minted
        assert sweep["span_id"] in parents
        assert requeue["span_id"] in parents
        assert all(r["outcome"] == "done" for r in hops)
        self._check_store_exactly_once(fab, points)

    def test_untraced_requeue_is_logged(self, tmp_path):
        """An untraced sweep's failover still leaves ``requeue`` records:
        their points add up to ``done.requeued``, each names the victim,
        and none carries trace fields."""
        gw_stream = io.StringIO()
        fab, victim, points = self._arm(tmp_path,
                                        request_log=RequestLog(gw_stream))
        fab.proxies[victim].plan.kill_after_results = 1
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
        assert out.trace_id is None
        assert out.requeued >= 2
        requeues = [r for r in map(json.loads,
                                   gw_stream.getvalue().splitlines())
                    if r["op"] == "requeue"]
        assert requeues
        assert sum(r["points"] for r in requeues) == out.requeued
        assert all(f"shard {fab.proxies[victim].id}" in r["error"]
                   for r in requeues)
        assert all("trace_id" not in r for r in requeues)
        self._check_store_exactly_once(fab, points)

    def test_dropped_connection_requeues_and_shard_recovers(
            self, tmp_path):
        """Sever only the streaming connection: the shard process stays
        alive, its unstreamed points are re-hashed onto the survivors,
        and the health loop re-admits it afterwards."""
        fab, victim, points = self._arm(tmp_path)
        fab.proxies[victim].plan.drop_after_results = 1
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
                warm = submit_chaos(client)
            assert fab.shards[victim].alive
            assert len(out.points) == CHAOS_POINTS
            assert out.requeued >= 2
            assert warm.simulations == 0
            assert fingerprint(warm) == fingerprint(out)
            self._check_store_exactly_once(fab, points)

            # The drop fires once; the next health ping must bring the
            # shard back into the ring.
            def all_healthy():
                with fab.client() as c:
                    return c.ping()["shards_healthy"] == 3

            assert wait_until(all_healthy, timeout_s=15.0)

    def test_delayed_acks_hit_the_read_timeout_and_requeue(self, tmp_path):
        """A sick-but-alive shard whose result lines stall longer than
        the gateway's per-read timeout is treated exactly like a dead
        one: its batch is re-hashed and nothing is simulated twice."""
        fab, victim, points = self._arm(
            tmp_path, shard_read_timeout_s=0.5, ping_timeout_s=5.0)
        fab.proxies[victim].plan.delay_results_s = 2.0
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
                # Disarm before resubmitting: the victim may have been
                # re-admitted by a health ping (pings are not delayed).
                fab.proxies[victim].plan.delay_results_s = 0.0
                warm = submit_chaos(client)
            assert fab.shards[victim].alive  # sick, not dead
            assert len(out.points) == CHAOS_POINTS
            # No result beat the timeout, so the victim's whole batch
            # (>= 3 points) was re-hashed.
            assert out.requeued >= 3
            assert warm.simulations == 0
            assert fingerprint(warm) == fingerprint(out)
            self._check_store_exactly_once(fab, points)

    def test_shed_bulk_job_retries_through_the_gateway_without_duplicates(
            self, tmp_path):
        """Load shedding end to end across the fabric: a shard with a
        one-slot queue sheds a second tenant's bulk partition with the
        typed ``overloaded`` error, the gateway passes the code through,
        the client backs off and resubmits — and when the dust settles
        nothing was simulated twice.

        Determinism comes from the shard's gather window: with
        ``--max-pending 1`` and a 1 s ``--batch-window-ms`` the first
        tenant's trickle keeps the queue pinned full between batches, so
        the second tenant's admission check during the window always
        sheds (the test polls the shard's live queue depth before
        submitting tenant B).
        """
        from repro.service import Overloaded, ServiceClient

        points = chaos_points()
        fab = Fabric(str(tmp_path / "cache"), n_shards=1,
                     shard_args=["--max-pending", "1",
                                 "--batch-window-ms", "1000"],
                     ping_timeout_s=2.0, health_interval_s=0.5)
        with fab:
            a_done = {}

            def tenant_a():
                with fab.client(client_id="tenant-a") as client:
                    a_done["outcome"] = client.submit_sweep(
                        list(CHAOS_WORKLOADS),
                        configs=list(CHAOS_CONFIGS),
                        bandwidth_gb=[CHAOS_BANDWIDTH_GB],
                        priority="bulk")

            thread = threading.Thread(target=tenant_a)
            thread.start()
            shard_port = fab.proxies[0].port
            with ServiceClient(port=shard_port, timeout=60.0) as probe:
                assert wait_until(
                    lambda: probe.metrics()["queue_depth"] >= 1,
                    timeout_s=30.0, interval_s=0.01)

            retries = []
            with fab.client(client_id="tenant-b") as client:
                out_b = client.submit_sweep(
                    list(CHAOS_WORKLOADS[:2]),
                    configs=list(CHAOS_CONFIGS), sram_mb=[2.0],
                    bandwidth_gb=[CHAOS_BANDWIDTH_GB],
                    priority="bulk", overload_retries=12,
                    on_retry=lambda n, delay, exc:
                        retries.append(exc))
                warm_b = client.submit_sweep(
                    list(CHAOS_WORKLOADS[:2]),
                    configs=list(CHAOS_CONFIGS), sram_mb=[2.0],
                    bandwidth_gb=[CHAOS_BANDWIDTH_GB],
                    priority="bulk", overload_retries=12)
            thread.join(timeout=300)
            assert not thread.is_alive()
            with ServiceClient(port=shard_port, timeout=60.0) as probe:
                shard_metrics = probe.metrics()

            # The shed fired, carried its typed fields through the
            # gateway, and the retry loop absorbed it.
            assert retries, "tenant B was never shed"
            assert all(isinstance(exc, Overloaded) for exc in retries)
            assert all(exc.retry_after_s > 0 for exc in retries)
            assert shard_metrics["shed_total"] >= 1

            # Both tenants' jobs completed in full...
            assert len(a_done["outcome"].points) == CHAOS_POINTS
            assert len(out_b.points) == 4
            assert warm_b.simulations == 0
            assert warm_b.hits == 4
            assert fingerprint(warm_b) == fingerprint(out_b)
            # ...and the shed/retry cycle duplicated zero simulations:
            # the store holds exactly one record per distinct key across
            # both tenants' grids.
            b_points = SweepSpec(workloads=CHAOS_WORKLOADS[:2],
                                 configs=CHAOS_CONFIGS,
                                 sram_bytes=(2 * MIB,),
                                 bandwidths=(CHAOS_BANDWIDTH_GB * GB,)
                                 ).points()
            assert duplicate_store_keys(fab.results_file()) == []
            assert set(store_record_keys(fab.results_file())) == {
                ResultStore.key_str(p.key())
                for p in [*points, *b_points]}

    def test_no_healthy_shards_is_a_clean_error(self, tmp_path):
        """A gateway whose every shard is unreachable must still start,
        answer pings, and fail submissions with actionable errors — not
        hang or crash."""
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()
        with GatewayThread([("127.0.0.1", dead_port)],
                           health_interval_s=30.0) as gw:
            with gw.client() as client:
                pong = client.ping()
                assert pong["shards_healthy"] == 0
                assert pong["shards_total"] == 1
                with pytest.raises(JobFailed, match="no healthy shards"):
                    client.submit_sweep([WORKLOAD], configs=["CELLO"])
                with pytest.raises(ServiceError,
                                   match="no healthy shards"):
                    client.submit_tune(WORKLOAD, strategy="grid",
                                       sram_mb=(4.0,), entries=(64,))
                with pytest.raises(ServiceError,
                                   match="no healthy shards"):
                    client.predict(WORKLOAD, "CELLO")
                topo = client.topology()
        assert topo["shards"][0]["healthy"] is False
        assert topo["shards"][0]["error"]
