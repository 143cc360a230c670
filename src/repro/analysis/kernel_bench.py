"""Hot-path micro-benchmarks: cache kernels, CHORD events, engines.

The simulation hot paths — the batched cache kernel, CHORD event handling
and the schedule-driven engine — are what bound every ``repro all`` cold
run.  This module times them with a small self-contained harness (no
pytest-benchmark dependency so the CLI can run it anywhere), renders a
table, and writes ``BENCH_kernels.json`` so the repo's performance
trajectory is tracked from run to run (CI uploads the file as an
artifact; ``benchmarks/bench_perf_kernels.py`` wraps the same harness
under pytest).

The headline number is the vector-vs-reference cache speedup on a
streaming trace — the rewrite this file exists to guard — expected to be
well above 10x.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..buffers.brrip import BrripPolicy
from ..buffers.cache import SetAssociativeCache
from ..buffers.lru import LruPolicy
from ..buffers.srrip import SrripPolicy
from ..chord.buffer import ChordBuffer
from ..chord.hints import ReuseHints, TensorHints
from ..hw.config import AcceleratorConfig
from ..sim.engine import CacheEngine, ScheduleEngine
from ..sim.trace import StreamSegment
from .report import render_table

#: Bumped when the benchmark definitions change incomparably.
BENCH_SCHEMA = 1

DEFAULT_OUT = "BENCH_kernels.json"

_POLICIES: Dict[str, Callable[[], object]] = {
    "lru": LruPolicy,
    "brrip": BrripPolicy,
    "srrip": SrripPolicy,
}


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def streaming_segments(
    total_bytes: int,
    chunk: int = 4096,
    n_streams: int = 3,
    passes: int = 2,
) -> List[StreamSegment]:
    """A synthetic best-intra-op-style trace: ``n_streams`` tensors woven
    together ``chunk`` bytes at a time (one of them written), repeated
    ``passes`` times so the cache sees streaming misses *and* reuse hits.

    Stream bases are chunk-aligned like real ``AddressMap`` extents —
    unaligned bases would make consecutive chunks re-touch their shared
    boundary line, artificially capping the conflict-free batch length.
    """
    per_stream = (total_bytes // n_streams) // chunk * chunk
    bases = [i * per_stream for i in range(n_streams)]
    segments: List[StreamSegment] = []
    for _ in range(passes):
        off = 0
        while off < per_stream:
            n = min(chunk, per_stream - off)
            for i, base in enumerate(bases):
                segments.append(StreamSegment(
                    tensor=f"T{i}", start=base + off, nbytes=n,
                    is_write=(i == n_streams - 1),
                ))
            off += n
    return segments


def bench_cache_backends(policy_name: str, accesses: int,
                         line_bytes: int = 16) -> Dict[str, float]:
    """Time one streaming trace through the vector and reference backends.

    The trace totals ~``accesses`` line-granularity accesses over a
    footprint 4x the cache capacity — the streaming-with-reuse shape the
    paper's baselines simulate.  Both backends replay the identical
    segment list; their stats are asserted equal, so the speedup is for
    byte-identical work.
    """
    passes = 2
    total_bytes = accesses * line_bytes // passes
    # Footprint ~4x capacity: streaming misses dominate but the later
    # passes still find partial reuse, so both hit and fill paths run.
    unit = line_bytes * 8
    capacity = max(unit, (total_bytes // 4) // unit * unit)
    segments = streaming_segments(total_bytes, passes=passes)
    results = {}
    stats = {}
    for backend in ("vector", "reference"):
        cache = SetAssociativeCache(
            capacity, line_bytes, 8, _POLICIES[policy_name](), backend=backend
        )
        seconds = _timed(lambda: cache.access_segments(segments))
        cache.flush()
        n = cache.stats.accesses
        results[f"{backend}_s"] = seconds
        results[f"{backend}_accesses_per_s"] = n / seconds if seconds else 0.0
        stats[backend] = cache.stats.as_dict()
    if stats["vector"] != stats["reference"]:
        raise AssertionError(
            f"backend divergence in {policy_name} bench: "
            f"{stats['vector']} != {stats['reference']}"
        )
    results["accesses"] = stats["vector"]["accesses"]
    results["speedup"] = (
        results["vector_accesses_per_s"] / results["reference_accesses_per_s"]
        if results["reference_accesses_per_s"] else float("inf")
    )
    return results


def bench_chord_events(n_tensors: int, rounds: int) -> Dict[str, float]:
    """CHORD event throughput: one write + ``rounds`` reads per tensor under
    capacity pressure (RIFF steals active)."""
    hints = ReuseHints({
        f"T{i}": TensorHints(
            f"T{i}", 10_000, i,
            tuple(i + (r + 1) * n_tensors for r in range(rounds)), False,
        )
        for i in range(n_tensors)
    })
    chord = ChordBuffer(n_tensors * 4_000, hints)

    def run() -> None:
        for i in range(n_tensors):
            chord.write(f"T{i}", i)
        for r in range(rounds):
            for i in range(n_tensors):
                chord.read(f"T{i}", (r + 1) * n_tensors + i)

    seconds = _timed(run)
    events = n_tensors * (rounds + 1)
    return {
        "events": events,
        "seconds": seconds,
        "events_per_s": events / seconds if seconds else 0.0,
    }


def bench_schedule_engine(iterations: int) -> Dict[str, float]:
    """End-to-end CELLO executor latency on a CG program."""
    from ..score.scheduler import Score
    from ..workloads.cg import CgProblem, build_cg_dag
    from ..workloads.matrices import FV1

    cfg = AcceleratorConfig()
    dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=iterations))
    sched = Score(cfg).schedule(dag)
    engine = ScheduleEngine(cfg)
    seconds = _timed(lambda: engine.run(sched))
    n_ops = len(dag.ops)
    return {
        "ops": n_ops,
        "seconds": seconds,
        "ops_per_s": n_ops / seconds if seconds else 0.0,
    }


def bench_cache_engine(iterations: int,
                       policy_name: str = "lru") -> Dict[str, float]:
    """End-to-end cache-baseline run (trace generation + vector kernel) at
    exact granularity (g=1), the fidelity the vectorization buys back.

    This is the real CG trace the Fig. 12 baselines replay, so its
    ``accesses_per_s`` is the rate a user waits on — the synthetic
    ``cache_*`` streams above overstate it — and ``tools/check_bench.py``
    gates it like every other ``*_per_s`` rate.
    """
    from ..workloads.cg import CgProblem, build_cg_dag
    from ..workloads.matrices import FV1

    cfg = AcceleratorConfig()
    dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=iterations))
    engine = CacheEngine(cfg, _POLICIES[policy_name](), granularity=1)
    t0 = time.perf_counter()
    result = engine.run(dag)
    seconds = time.perf_counter() - t0
    accesses = result.onchip_accesses["cache"]
    return {
        "seconds": seconds,
        "dram_bytes": result.dram_bytes,
        "accesses": accesses,
        "accesses_per_s": accesses / seconds if seconds else 0.0,
    }


def bench_analytic_eval(evals: int, sim_evals: int,
                        batch_points: int) -> Dict[str, float]:
    """Analytic fast path vs the full simulated path, per tuner point.

    Measures what ``repro tune --fidelity hybrid`` actually buys, on
    three rungs of the same ladder:

    * **simulated** — rebuild the DAG and replay the schedule engine
      from scratch ``sim_evals`` times (``runner.clear_cache()`` between
      runs — a fresh point never hits the memo);
    * **point-wise analytic** — the compiled model, compile once,
      ``model.evaluate`` ``evals`` times (≥10k at full size so the rate
      is not single-call noise);
    * **batch analytic** — one :func:`repro.analytic.evaluate_batch`
      call over a ``batch_points``-row knob grid.

    The point-wise and batch sides price the *same* knob distribution —
    schedule toggles cycling through all eight combinations, an entries
    axis sweeping 1..512 across the no-pressure peak — so the ratio is
    apples to apples and both the closed-form broadcast and the
    vectorised capacity recurrence are on the clock.

    ``analytic_over_simulated`` and ``batch_over_pointwise`` are gated
    by ``tools/check_bench.py`` (``--min-analytic-speedup`` 100x,
    ``--min-batch-speedup`` 50x).
    """
    from dataclasses import replace

    from ..analytic import BatchKnobs, evaluate_batch, model_for
    from ..baselines import runner
    from ..baselines.configs import cello_variant_name
    from ..sim.engine import EngineOptions
    from ..workloads.registry import resolve_workload

    cfg = AcceleratorConfig()
    workload = resolve_workload("gmres/fv1/m=8/N=1")
    model = model_for(workload, "CELLO", cfg)  # compile outside the clock

    def knob_row(i: int):
        return (bool(i & 1), bool(i & 2), bool(i & 4), (i % 512) + 1)

    def run_analytic() -> None:
        for i in range(evals):
            riff, retire, swz, entries = knob_row(i)
            options = EngineOptions(use_riff=riff, explicit_retire=retire,
                                    charge_swizzle=swz)
            model.evaluate(cello_variant_name(options), options,
                           replace(cfg, chord_entries=entries))

    def run_simulated() -> None:
        for _ in range(sim_evals):
            runner.clear_cache()
            runner.run_workload_config(workload, "CELLO", cfg)

    rows = np.arange(batch_points)
    knobs = BatchKnobs.from_columns(
        batch_points,
        use_riff=(rows & 1).astype(bool),
        explicit_retire=(rows & 2).astype(bool),
        charge_swizzle=(rows & 4).astype(bool),
        chord_entries=(rows % 512) + 1,
        capacity_bytes=cfg.chord_data_bytes,
    )
    evaluate_batch(model, knobs)  # warm the cached batch program

    analytic_s = _timed(run_analytic)
    simulated_s = _timed(run_simulated)
    batch_s = _timed(lambda: evaluate_batch(model, knobs))
    runner.clear_cache()
    analytic_rate = evals / analytic_s if analytic_s else 0.0
    simulated_rate = sim_evals / simulated_s if simulated_s else 0.0
    batch_rate = batch_points / batch_s if batch_s else 0.0
    return {
        "evals": evals,
        "sim_evals": sim_evals,
        "batch_points": batch_points,
        "analytic_s": analytic_s,
        "simulated_s": simulated_s,
        "batch_s": batch_s,
        "analytic_evals_per_s": analytic_rate,
        "simulated_evals_per_s": simulated_rate,
        "batch_evals_per_s": batch_rate,
        "analytic_over_simulated": (
            analytic_rate / simulated_rate if simulated_rate
            else float("inf")
        ),
        "batch_over_pointwise": (
            batch_rate / analytic_rate if analytic_rate else float("inf")
        ),
    }


def run_kernel_bench(quick: bool = False) -> Dict:
    """Run every hot-path bench; ``quick`` shrinks workloads ~10x for CI."""
    cache_accesses = 200_000 if quick else 2_000_000
    results: Dict[str, Dict[str, float]] = {}
    for name in _POLICIES:
        results[f"cache_{name}"] = bench_cache_backends(name, cache_accesses)
    results["chord_events"] = bench_chord_events(
        n_tensors=64, rounds=20 if quick else 100
    )
    results["schedule_engine"] = bench_schedule_engine(
        iterations=20 if quick else 100
    )
    for name, policy in (("cache_engine_g1", "lru"),
                         ("cache_engine_g1_brrip", "brrip")):
        results[name] = bench_cache_engine(
            iterations=2 if quick else 8, policy_name=policy
        )
    results["analytic_eval"] = bench_analytic_eval(
        evals=1_000 if quick else 10_000,
        sim_evals=3 if quick else 20,
        # One vectorised call over 100k points costs ~30ms, so quick mode
        # keeps the full batch: shrinking it would only deflate the
        # amortisation ratio the CI gate checks.
        batch_points=100_000,
    )
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": results,
    }


def write_bench_json(report: Dict, path: Optional[str] = None) -> Path:
    out = Path(path or DEFAULT_OUT)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return out


def render_bench(report: Dict) -> str:
    rows = []
    res = report["results"]
    for name in sorted(k for k in res if k.startswith("cache_") and "speedup" in res[k]):
        r = res[name]
        rows.append([
            name, r["accesses"] / 1e6,
            r["reference_accesses_per_s"] / 1e6,
            r["vector_accesses_per_s"] / 1e6,
            r["speedup"],
        ])
    table = render_table(
        ["bench", "M accesses", "ref Macc/s", "vec Macc/s", "speedup"],
        rows,
        title=f"Cache kernel backends ({'quick' if report['quick'] else 'full'})",
    )
    extra = [
        "",
        f"chord events:    {res['chord_events']['events_per_s'] / 1e6:.2f} M events/s",
        f"schedule engine: {res['schedule_engine']['ops_per_s']:.0f} ops/s "
        f"({res['schedule_engine']['seconds'] * 1e3:.1f} ms)",
        *(
            f"cache engine g=1 {policy}: {r['seconds'] * 1e3:.1f} ms, "
            f"{r['accesses_per_s'] / 1e6:.2f} M accesses/s "
            f"({r['dram_bytes'] / 1e6:.1f} MB DRAM)"
            for policy, r in (("lru", res["cache_engine_g1"]),
                              ("brrip", res["cache_engine_g1_brrip"]))
        ),
        f"analytic eval:   {res['analytic_eval']['analytic_evals_per_s']:.0f}"
        f" evals/s vs {res['analytic_eval']['simulated_evals_per_s']:.1f} "
        f"simulated — {res['analytic_eval']['analytic_over_simulated']:.0f}x",
        f"batch analytic:  {res['analytic_eval']['batch_evals_per_s']:.0f}"
        f" evals/s over {res['analytic_eval']['batch_points']:.0f} points "
        f"— {res['analytic_eval']['batch_over_pointwise']:.0f}x point-wise",
    ]
    return table + "\n" + "\n".join(extra)
