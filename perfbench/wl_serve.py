"""serve-mixed: one closed-loop client through a gateway over two shards.

The fabric is ``repro gateway`` over two ``repro serve --jobs 1``
shards sharing one store.  The store starts with 10,288 records, every
one simulated at set-up (Flexagon over 1,280 SRAM sizes for eight
workloads, plus four configs at two SRAM sizes for the warm reads), and
each fabric gets a fresh copy of it.

One client on one connection sends blocks of eleven requests, each block
ten warm and one cold in a seeded order, and waits for every reply
(``repro submit`` callers wait too, so the loop is closed):

* warm -- one stored workload x 4 configs x 2 SRAM sizes x 2 bandwidths,
  16 points over 8 traffic keys, so it fans out across both shards and
  is answered from the store;
* cold -- a seeded random DAG the store has never seen, 3 cheap configs
  x 2 bandwidths: its latency is the service's own cost of a write
  (store reload, claim, simulate, append).

``wall_s`` is the median block time.  Per-class latencies are measured
with tracing off in the first pass of a traced run and reported as the
per-layer ``service.*`` metrics; a percentile is reported only with ten
samples beyond it in its class.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers
from bench import HERE, Context, digest, percentile, spans_path

STORE_WORKLOADS = (
    "cg/fv1/N=1@it2", "cg/fv1/N=16@it2", "cg/shallow_water1/N=1@it2",
    "cg/G2_circuit/N=1@it2", "bicgstab/fv1/N=1@it2", "mg/fv1/N=1@cyc1",
    "xformer/s=128/d=64", "resnet/conv3_x",
)
BULK_SRAM_SIZES = 1280
BULK_SRAM_STEP = 4096
WARM_CONFIGS = ("Flexagon", "FLAT", "SET", "CELLO")
WARM_SRAM_MB = (2.0, 4.0)
COLD_CONFIGS = ("Flexagon", "FLAT", "CELLO")
COLD_SRAM_MB = (2.0,)
BANDWIDTHS_GB = (250.0, 1000.0)
WARM_PER_COLD = 10
SETUP_SAMPLES = 3
#: Blocks in the latency pass: 20 cold samples put ten beyond the cold
#: median, 200 warm samples put twenty beyond the warm p90.
MIN_LATENCY_BLOCKS = 20

TINY_WORKLOADS = STORE_WORKLOADS[:2]
TINY_BULK_SRAM_SIZES = 24
TINY_WARM_PER_COLD = 3

HOST = "127.0.0.1"
_LISTENING = re.compile(r"listening on [^ ]*:(\d+)")


class _Proc:
    """A fabric endpoint: one process whose stdout lines are collected."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 log: Path) -> None:
        self._log = log.open("wb")
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.lines: List[str] = []
        self._eof = False
        self._cond = threading.Condition()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append(line.strip())
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def await_port(self, timeout: float = 60.0) -> Tuple[int, str]:
        """Wait for the endpoint's 'listening on host:port' announcement."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                for line in self.lines:
                    m = _LISTENING.search(line)
                    if m:
                        return int(m.group(1)), line
                if self._eof or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"endpoint did not start (see {self._log.name})")
                self._cond.wait(0.5)

    def hwm_mb(self) -> float:
        """Peak resident set (VmHWM) of the endpoint, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, port: Optional[int]) -> None:
        """Ask the endpoint to shut down; kill it if it will not."""
        from repro.service import ServiceClient, ServiceError

        if port is not None and self.proc.poll() is None:
            try:
                with ServiceClient(HOST, port, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass
        try:
            self.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        self._log.close()


class Fabric:
    """``repro gateway`` over two ``repro serve --jobs 1`` shards sharing
    ``store_dir``; ``setup_s`` is spawn-to-ready of the whole fabric."""

    def __init__(self, store_dir: Path, logs: Path,
                 trace_dir: Optional[Path] = None) -> None:
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   REPRO_CACHE_DIR=str(store_dir))
        self.store_dir = store_dir
        self.procs: List[_Proc] = []
        self.ports: List[Optional[int]] = []
        t0 = time.perf_counter()
        try:
            for k in range(2):
                argv = ["serve", "--host", HOST, "--port", "0", "--jobs", "1",
                        "--cache-dir", str(store_dir)]
                shard_env = env
                if trace_dir is None:
                    argv = [sys.executable, "-m", "repro", *argv]
                else:
                    argv = [sys.executable, str(HERE / "shard.py"), *argv]
                    shard_env = dict(env, PERFBENCH_TRACE_OUT=str(
                        trace_dir / f"shard{k}.json"))
                self.procs.append(_Proc(argv, shard_env,
                                        logs / f"shard{k}.log"))
                self.ports.append(None)
            for k in range(2):
                self.ports[k] = self.procs[k].await_port()[0]
            self.procs.append(_Proc(
                [sys.executable, "-m", "repro", "gateway", "--host", HOST,
                 "--port", "0", "--shards",
                 ",".join(str(p) for p in self.ports)],
                env, logs / "gateway.log"))
            self.ports.append(None)
            port, line = self.procs[2].await_port()
            self.ports[2] = port
            if "shards: 2/2 healthy" not in line:
                raise RuntimeError(f"gateway came up degraded: {line}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    @property
    def port(self) -> int:
        return self.ports[2]

    def metrics(self) -> Tuple[Dict, List[Dict]]:
        """(gateway metrics, [shard metrics])."""
        from repro.service import ServiceClient

        out = []
        for port in self.ports:
            with ServiceClient(HOST, port, timeout=30.0) as client:
                out.append(client.metrics())
        return out[2], out[:2]

    def peak_rss_mb(self) -> float:
        return sum(p.hwm_mb() for p in self.procs)

    def stop(self) -> None:
        # Gateway first, so no shard is torn down under a live job.
        for proc, port in reversed(list(zip(self.procs, self.ports))):
            proc.stop(port)


def _store_records(directory: Path) -> Tuple[Dict[str, List[int]], int]:
    """(key -> [dram read, dram write], duplicate keys) of a store file."""
    from repro.orchestrator.store import RESULTS_FILE, ResultStore

    records: Dict[str, List[int]] = {}
    duplicates = 0
    with open(directory / RESULTS_FILE, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            ks = ResultStore.key_str(record["key"])
            if ks in records:
                duplicates += 1
                continue
            result = record["result"]
            records[ks] = [result["dram_read_bytes"],
                           result["dram_write_bytes"]]
    return records, duplicates


class Workload:
    def __init__(self, ctx: Context) -> None:
        from repro.baselines import runner
        from repro.hw.config import MIB, AcceleratorConfig
        from repro.orchestrator.store import ResultStore, result_key
        from repro.workloads.registry import resolve_workload

        self.ctx = ctx
        self.runner, self.resolve = runner, resolve_workload
        self.result_key, self.key_str = result_key, ResultStore.key_str
        self.base_cfg = AcceleratorConfig()
        self.MIB = MIB
        self.workloads = TINY_WORKLOADS if ctx.tiny else STORE_WORKLOADS
        self.warm_per_cold = TINY_WARM_PER_COLD if ctx.tiny else WARM_PER_COLD
        self.fabrics: List[Fabric] = []
        self.base_dir = ctx.fresh_dir("base-store")
        self._build_store(TINY_BULK_SRAM_SIZES if ctx.tiny
                          else BULK_SRAM_SIZES)

    # -- set-up ----------------------------------------------------------------

    def _build_store(self, n_sram: int) -> None:
        """Simulate the base store once per invocation (no record is
        fabricated) and pin its digest."""
        from repro.orchestrator.store import ResultStore

        runner = self.runner
        store = ResultStore(self.base_dir)
        runner.set_store(store)
        try:
            for name in self.workloads:
                w = self.resolve(name)
                for i in range(n_sram):
                    runner.run_workload_config(w, "Flexagon", self._cfg(
                        self.MIB + i * BULK_SRAM_STEP))
                for config in WARM_CONFIGS:
                    for mb in WARM_SRAM_MB:
                        runner.run_workload_config(
                            w, config, self._cfg(int(mb * self.MIB)))
        finally:
            runner.set_store(None)
            runner.clear_cache()
        self.base, duplicates = _store_records(self.base_dir)
        self.ctx.check("store_built", duplicates == 0
                       and (self.ctx.tiny or len(self.base) >= 10_000))
        self.ctx.check_pin("store", digest(sorted(self.base.items())))
        self.ctx.info["store_records"] = len(self.base)

    def _cfg(self, sram_bytes: int):
        return self.base_cfg.with_sram(sram_bytes)

    def _fabric(self, name: str, trace_dir: Optional[Path] = None) -> Fabric:
        store = self.ctx.workdir / name
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(self.base_dir, store)
        logs = self.ctx.fresh_dir(f"{name}-logs")
        fabric = Fabric(store, logs, trace_dir)
        self.fabrics.append(fabric)
        return fabric

    # -- the closed loop -------------------------------------------------------

    def _blocks(self):
        """Seeded blocks: ``warm_per_cold`` warm reads and one cold write."""
        rng = random.Random(self.ctx.seed)
        n = 0
        while True:
            block = [("warm", rng.choice(self.workloads))
                     for _ in range(self.warm_per_cold)]
            cold = (f"rand/s={1_000_000 + abs(self.ctx.seed) * 100_000 + n}"
                    "/ops=12/f=2/k=2")
            block.insert(rng.randrange(len(block) + 1), ("cold", cold))
            n += 1
            yield block

    def _drive(self, fabric: Fabric, seconds: float = 0.0,
               n_blocks: Optional[int] = None, min_blocks: int = 1):
        """Send blocks until ``n_blocks`` are done or the next one would
        end past ``seconds``; returns (requests, block seconds).  A
        request is (class, workload, seconds, outcome)."""
        from repro.service import ServiceClient, ServiceError

        requests: List[tuple] = []
        blocks: List[float] = []
        t_start = time.perf_counter()
        with ServiceClient(HOST, fabric.port, timeout=120.0,
                           client_id="perfbench") as client:
            for block in self._blocks():
                t_block = time.perf_counter()
                for cls, name in block:
                    warm = cls == "warm"
                    t0 = time.perf_counter()
                    try:
                        outcome = client.submit_sweep(
                            [name],
                            configs=WARM_CONFIGS if warm else COLD_CONFIGS,
                            sram_mb=WARM_SRAM_MB if warm else COLD_SRAM_MB,
                            bandwidth_gb=BANDWIDTHS_GB, overload_retries=0)
                    except ServiceError as exc:
                        outcome = exc
                    requests.append((cls, name, time.perf_counter() - t0,
                                     outcome))
                blocks.append(time.perf_counter() - t_block)
                elapsed = time.perf_counter() - t_start
                if n_blocks is not None:
                    if len(blocks) >= n_blocks:
                        break
                elif (len(blocks) >= min_blocks
                      and elapsed + statistics.median(blocks) > seconds):
                    break
        return requests, blocks

    # -- correctness -----------------------------------------------------------

    def _verify(self, fabric: Fabric, requests: Sequence[tuple],
                shard_metrics: Sequence[Dict], gateway: Dict) -> set:
        """Check every served record, the store and the dedup counters;
        returns the distinct cold traffic keys."""
        ctx = self.ctx
        final, duplicates = _store_records(fabric.store_dir)
        cold_points: Dict[str, tuple] = {}
        for cls, name, _, outcome in requests:
            ok = not isinstance(outcome, Exception)
            if ok:
                warm = cls == "warm"
                expected = (len(WARM_CONFIGS) * len(WARM_SRAM_MB) if warm
                            else len(COLD_CONFIGS) * len(COLD_SRAM_MB))
                ok = (len(outcome.points) == expected * len(BANDWIDTHS_GB)
                      and outcome.simulations == (0 if warm else expected))
                for pt in outcome.points:
                    ks = self.key_str(self.result_key(
                        pt.config, pt.workload, self._cfg(pt.sram_bytes),
                        pt.cache_granularity))
                    got = [pt.result.dram_read_bytes,
                           pt.result.dram_write_bytes]
                    ok = ok and (self.base if warm else final).get(ks) == got
                    if not warm:
                        cold_points[ks] = (pt.workload, pt.config,
                                           pt.sram_bytes, got)
            ctx.attempt(ok)
        ctx.check("served_records_match_store", ctx.failed == 0)
        # Every cold record equals an independent in-process simulation.
        runner = self.runner
        runner.set_store(None)
        runner.clear_cache()
        ctx.check("cold_records_resimulated", all(
            [r.dram_read_bytes, r.dram_write_bytes] == got
            for workload, config, sram, got in cold_points.values()
            for r in [runner.run_workload_config(
                self.resolve(workload), config, self._cfg(sram))]))
        ctx.check("store_intact", duplicates == 0 and len(final)
                  == len(self.base) + len(cold_points))
        sims = sum(m["simulations"] for m in shard_metrics)
        ctx.check("no_duplicate_sims", sims == len(cold_points))
        ctx.check("no_shed", sum(m["shed_total"] for m in shard_metrics) == 0)
        ctx.check("no_requeue", gateway["requeued_total"] == 0)
        return set(cold_points)

    # -- passes ----------------------------------------------------------------

    def measure(self) -> Dict[str, float]:
        setups = []
        for k in range(SETUP_SAMPLES):
            fabric = self._fabric(f"fabric{k}")
            setups.append(fabric.setup_s)
            if k < SETUP_SAMPLES - 1:
                fabric.stop()
        requests, blocks = self._drive(fabric, seconds=self.ctx.seconds,
                                       min_blocks=2)
        gateway, shards = fabric.metrics()
        rss = fabric.peak_rss_mb()
        fabric.stop()
        self._verify(fabric, requests, shards, gateway)
        self._latency_info(requests, blocks)
        self.ctx.info["setup_samples_s"] = setups
        return {"setup_s": statistics.median(setups),
                "wall_s": statistics.median(blocks),
                "peak_rss_mb": rss}

    def _latency_info(self, requests: Sequence[tuple], blocks: List[float]
                      ) -> Dict[str, float]:
        """Per-class latency, each percentile only when its class has
        enough samples; returned as per-layer ``service.*`` metrics and
        printed as info."""
        out: Dict[str, float] = {
            "service.requests_per_s": len(requests) / sum(blocks)}
        for cls, q, name in (("warm", 0.5, "service.warm_p50_ms"),
                             ("warm", 0.9, "service.warm_p90_ms"),
                             ("cold", 0.5, "service.cold_p50_ms")):
            xs = [r[2] for r in requests if r[0] == cls]
            try:
                out[name] = percentile(xs, q) * 1000.0
            except ValueError as exc:
                self.ctx.info[name] = f"not reported: {exc}"
                continue
            self.ctx.info[name] = out[name]
        self.ctx.info["service.requests_per_s"] = out["service.requests_per_s"]
        self.ctx.info["blocks"] = len(blocks)
        return out

    def traced(self) -> Dict[str, float]:
        # Pass 1, tracing off: the per-class latencies and the baseline
        # wall time of the request sequence.
        plain = self._fabric("fabric-plain")
        requests, blocks = self._drive(
            plain, seconds=self.ctx.seconds / 2,
            min_blocks=2 if self.ctx.tiny else MIN_LATENCY_BLOCKS)
        gateway, shards = plain.metrics()
        plain.stop()
        self._verify(plain, requests, shards, gateway)
        latency = self._latency_info(requests, blocks)
        untraced = sum(r[2] for r in requests)
        # Pass 2: the same sequence through shards that record spans.
        trace_dir = self.ctx.fresh_dir("trace")
        fabric = self._fabric("fabric-traced", trace_dir)
        start = time.perf_counter()
        requests, blocks = self._drive(fabric, n_blocks=len(blocks))
        window = (start, time.perf_counter())
        traced = sum(r[2] for r in requests)
        gateway, shards = fabric.metrics()
        fabric.stop()
        cold_keys = self._verify(fabric, requests, shards, gateway)
        parts = []
        for k in range(2):
            part = json.loads((trace_dir / f"shard{k}.json").read_text())
            parts.append(part)
            Path(spans_path(self.ctx, f"shard{k}")).write_text(json.dumps(part))
        final, duplicates = _store_records(fabric.store_dir)
        hits = sum(m["hits_total"] for m in shards)
        sims = sum(m["simulations"] for m in shards)
        coalesced = sum(m["coalesced_total"] for m in shards)
        gw_p50 = _warm_p50_ms(gateway)
        shard_p50 = _warm_p50_ms(*shards)
        extra = dict(latency)
        extra.update({
            "baselines.simulations": sims,
            "orchestrator.store_records": len(final),
            "service.gateway_p50_ms": gw_p50,
            "service.shard_p50_ms": shard_p50,
            "service.hop_ms": gw_p50 - shard_p50,
            "service.warm_hit_ratio": hits / max(1, hits + sims + coalesced),
            "service.coalesced": coalesced,
            "service.shed": sum(m["shed_total"] for m in shards),
            "service.requeued": gateway["requeued_total"],
            "service.duplicate_sims": sims - len(cold_keys) + duplicates,
        })
        return layers.layer_metrics(parts, window, traced / untraced,
                                    extra=extra)

    def close(self) -> None:
        for fabric in self.fabrics:
            fabric.stop()


def _warm_p50_ms(*snapshots: Dict) -> float:
    """Median latency of warm (non-``rand``) jobs from the ``metrics``
    op's latency histograms, merged across ``snapshots``."""
    from repro.service.metrics import Histogram

    merged = None
    for snap in snapshots:
        family = snap["latency"]
        labels = family["labels"]
        for key, data in family["series"].items():
            if dict(zip(labels, key.split("|"))).get("family") == "rand":
                continue
            hist = Histogram.from_snapshot(data)
            merged = hist if merged is None else merged.merge(hist)
    return merged.quantile(0.5) * 1000.0 if merged is not None else 0.0
