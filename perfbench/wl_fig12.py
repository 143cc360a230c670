"""fig12-cold: the paper's Fig. 12 grid simulated into an empty store.

One repetition is what ``repro fig12`` does cold -- every CG dataset x
N x bandwidth x Table IV configuration, serially -- at one CG iteration
per DAG.  The paper's ten iterations take about a minute per pass,
longer than a whole benchmark run may take; one iteration keeps every
dataset, configuration and code path (trace generation and the
set-associative cache kernel still do nearly all the work) at about a
sixth of the cost.  The seed permutes the order the panels are
simulated in; the result set, and so the pinned digest, is the same.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict

import layers
from bench import Context, close, digest, peak_rss_mb, repeat_for, trace_rep

ITERATIONS = 1


class Workload:
    def __init__(self, ctx: Context) -> None:
        from repro.analytic import backend
        from repro.baselines import runner
        from repro.experiments import fig12_cg_performance as fig12
        from repro.orchestrator.store import ResultStore
        from repro.workloads.registry import CG_DATASETS, CG_N_VALUES

        self.ctx = ctx
        self.backend, self.runner, self.fig12 = backend, runner, fig12
        self.ResultStore = ResultStore
        rng = random.Random(ctx.seed)
        self.datasets = list(CG_DATASETS[:1] if ctx.tiny else CG_DATASETS)
        self.n_values = list(CG_N_VALUES[:1] if ctx.tiny else CG_N_VALUES)
        rng.shuffle(self.datasets)
        rng.shuffle(self.n_values)
        self.store = None

    def rep(self, index: int) -> float:
        """One cold grid pass into a fresh store; returns its seconds."""
        ctx, runner = self.ctx, self.runner
        runner.clear_cache()
        self.backend.clear_model_cache()
        gc.collect()            # start from a clean heap, as a new process does
        directory = ctx.fresh_dir(f"rep{index % 2}")
        sims0 = runner.simulation_count()
        t0 = time.perf_counter()
        self.store = self.ResultStore(directory)
        runner.set_store(self.store)
        panels = self.fig12.run(datasets=self.datasets,
                                n_values=self.n_values,
                                iterations=ITERATIONS, jobs=1)
        geomean = self.fig12.cello_geomean_speedup(panels)
        elapsed = time.perf_counter() - t0
        runner.set_store(None)
        points = sorted(
            [p.dataset, p.n, p.bandwidth, config, r.dram_read_bytes,
             r.dram_write_bytes]
            for p in panels for config, r in p.results.items())
        n_keys = len(points) // 2          # bandwidths share a simulation
        ok = all([
            ctx.check_pin("points", digest(points)),
            ctx.check("geomean", close(geomean, ctx.pins.get("geomean"))),
            ctx.check("cold", runner.simulation_count() - sims0 == n_keys),
        ])
        ctx.observed["geomean"] = geomean
        ctx.info["cello_geomean_speedup"] = geomean
        ctx.info["simulated_points"] = n_keys
        ctx.attempt(ok)
        return elapsed

    def measure(self) -> Dict[str, float]:
        times = repeat_for(self.ctx.seconds, self.rep)
        self.ctx.info["repetitions_s"] = times
        return {"wall_s": statistics.median(times),
                "peak_rss_mb": peak_rss_mb()}

    def traced(self) -> Dict[str, float]:
        snapshot, window, overhead, sims = trace_rep(
            self.ctx, self.rep, self.runner.simulation_count)
        return layers.layer_metrics(
            [snapshot], window, overhead,
            extra={"baselines.simulations": sims,
                   "orchestrator.store_records": len(self.store)})

    def close(self) -> None:
        self.runner.set_store(None)
