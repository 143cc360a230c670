"""tune-gmres: two hybrid tunes of GMRES(24) on fv1, each from cold.

The space is 2 SRAM sizes x 188 RIFF index-table sizes x the 8 schedule
knobs = 3,008 points.  One repetition runs, serially and each into an
empty store with empty model caches:

* a grid tune, which takes the tuner's columnar path (one compiled
  analytic model and one ``evaluate_batch`` call per SRAM size, then
  exact simulation of the analytic Pareto survivors);
* a successive-halving tune, which takes the point-wise
  ``_BatchEvaluator`` path.

The seed permutes the order of the grid tune's SRAM and index-table
axes (the incumbent's values stay first).  The frontier must not depend
on enumeration order, so every seed is checked against the same pinned
front.  The halving tune keeps the canonical order and a fixed sampling
seed: its amount of work then does not vary from run to run.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict

import layers
from bench import Context, digest, peak_rss_mb, repeat_for, trace_rep

WORKLOAD = "gmres/fv1/m=24/N=1"
SRAM_MB = (1.0, 2.0)
ENTRIES = tuple(range(8, 760, 4))
HALVING_BUDGET = 24
HALVING_SEED = 0
OBJECTIVES = ("runtime", "dram", "area")

TINY_WORKLOAD = "gmres/fv1/m=8/N=1"
TINY_SRAM_MB = (1.0, 2.0)
TINY_ENTRIES = (16, 64)
TINY_BUDGET = 12


def _front_digest(result) -> str:
    return digest([[e.config, sorted(e.point.knobs().items()), list(e.vector)]
                   for e in result.front.entries])


def _incumbent_digest(result) -> str:
    inc = result.incumbent
    return digest([inc.config, sorted(inc.objectives.items()),
                   inc.result.dram_read_bytes, inc.result.dram_write_bytes])


class Workload:
    def __init__(self, ctx: Context) -> None:
        from repro.analytic import backend
        from repro.baselines import runner
        from repro.hw.config import MIB
        from repro.orchestrator.store import ResultStore
        from repro.tuner import TuneSpace, make_strategy, tune
        from repro.workloads.registry import resolve_workload

        self.ctx = ctx
        self.backend, self.runner = backend, runner
        self.ResultStore, self.make_strategy, self.tune = \
            ResultStore, make_strategy, tune
        self.workload = resolve_workload(TINY_WORKLOAD if ctx.tiny
                                         else WORKLOAD)
        srams = [int(m * MIB) for m in (TINY_SRAM_MB if ctx.tiny
                                        else SRAM_MB)]
        entries = list(TINY_ENTRIES if ctx.tiny else ENTRIES)
        self.spaces = {"halving": TuneSpace(chord_entries=tuple(entries),
                                            sram_bytes=tuple(srams))}
        # The first value of each axis is the incumbent's; it stays first.
        rng = random.Random(ctx.seed)
        srams[1:] = rng.sample(srams[1:], len(srams) - 1)
        entries[1:] = rng.sample(entries[1:], len(entries) - 1)
        self.spaces["grid"] = TuneSpace(chord_entries=tuple(entries),
                                        sram_bytes=tuple(srams))
        self.budget = TINY_BUDGET if ctx.tiny else HALVING_BUDGET
        self.stores = []
        self.results = []

    def _cold_tune(self, strategy: str, directory: str):
        """One tune from empty caches and an empty store; returns
        (result, seconds)."""
        self.runner.clear_cache()
        self.backend.clear_model_cache()
        gc.collect()            # start from a clean heap, as a new process does
        t0 = time.perf_counter()
        store = self.ResultStore(directory)
        self.runner.set_store(store)
        result = self.tune(
            self.workload, space=self.spaces[strategy],
            strategy=self.make_strategy(strategy, budget=self.budget,
                                        seed=HALVING_SEED),
            objectives=OBJECTIVES, jobs=1, fidelity="hybrid")
        elapsed = time.perf_counter() - t0
        self.runner.set_store(None)
        self.stores.append(store)
        return result, elapsed

    def rep(self, index: int) -> float:
        ctx = self.ctx
        self.stores, self.results = [], []
        grid, t_grid = self._cold_tune(
            "grid", ctx.fresh_dir(f"rep{index % 2}-grid"))
        halving, t_halving = self._cold_tune(
            "halving", ctx.fresh_dir(f"rep{index % 2}-halving"))
        self.results = [grid, halving]
        max_error = ctx.pins.get("analytic_max_rel_error", -1.0)
        n_points = len(self.spaces["grid"])
        ok = all([
            ctx.check("space_points", n_points >= (32 if ctx.tiny else 3000)),
            ctx.check_pin("grid_front", _front_digest(grid)),
            ctx.check_pin("incumbent", _incumbent_digest(grid)),
            ctx.check("halving_incumbent",
                      _incumbent_digest(halving) == _incumbent_digest(grid)),
            ctx.check_pin("halving_front", _front_digest(halving)),
            ctx.check("analytic_error", all(
                r.analytic_max_rel_error is not None
                and r.analytic_max_rel_error <= max_error
                for r in (grid, halving))),
        ])
        ctx.observed["analytic_max_rel_error"] = max(
            r.analytic_max_rel_error or 0.0 for r in (grid, halving))
        ctx.info["space_points"] = n_points
        ctx.info["grid_s"] = t_grid
        ctx.info["halving_s"] = t_halving
        ctx.attempt(ok)
        return t_grid + t_halving

    def measure(self) -> Dict[str, float]:
        times = repeat_for(self.ctx.seconds, self.rep)
        self.ctx.info["repetitions_s"] = times
        return {"wall_s": statistics.median(times),
                "peak_rss_mb": peak_rss_mb()}

    def traced(self) -> Dict[str, float]:
        snapshot, window, overhead, sims = trace_rep(
            self.ctx, self.rep, self.runner.simulation_count)
        exact = sum(r.n_simulations for r in self.results)
        priced = snapshot["counts"].get("analytic.points_priced", 0.0)
        return layers.layer_metrics(
            [snapshot], window, overhead,
            extra={"baselines.simulations": sims,
                   "tuner.exact_sims": exact,
                   "tuner.survivor_ratio": exact / priced if priced else 0.0,
                   "orchestrator.store_records":
                       sum(len(s) for s in self.stores)})

    def close(self) -> None:
        self.runner.set_store(None)
