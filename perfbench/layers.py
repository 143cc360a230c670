"""Per-layer tracing for the traced benchmark pass (``--trace 1``).

Spans are recorded only from this file: :meth:`Recorder.install` wraps
the public layer functions of :mod:`repro` at the names their callers
resolve, so the program itself is unchanged.

* ``workloads.build`` -- the ``build_*_dag`` builders in
  :mod:`repro.workloads.registry`; every ``Workload.build`` closure
  looks them up there at call time.
* ``core.classify`` -- ``classify_dependencies`` as the scheduler
  imported it.
* ``score.schedule`` -- ``Score.schedule``.
* ``analytic.compile`` / ``analytic.evaluate`` -- ``backend.model_for``
  (also re-exported by :mod:`repro.analytic`) and ``evaluate_batch``.
* ``orchestrator.store_open`` / ``store_reload`` / ``store_put`` --
  ``ResultStore.__init__``, ``reload`` and ``put``.

The engine's trace-gen, cache-kernel and CHORD-accounting phases arrive
through its public ``set_phase_hook``.  Counters are taken at the same
boundaries: cache and CHORD statistics when an engine run finishes,
RIFF victim selections, and the runner's memo lookups.

Spans stay in memory; :meth:`Recorder.dump` writes them out at exit,
and :meth:`Recorder.uninstall` restores the originals.  A layer's self
time is its span time minus the time its child spans cover; in one
process, self times, phase times and ``other_s`` add up
to the wall time of the traced pass.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from metrics import PER_LAYER

#: Engine phases reported through ``set_phase_hook``.
PHASES = ("trace-gen", "cache-kernel", "chord-accounting")


class Recorder:
    """In-memory spans ``[name, start, end, parent]`` plus counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._hook_before: Optional[Callable] = None

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call, nested under the caller's
        open span on the same thread."""
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
        return traced

    def phase_hook(self, phase: str, seconds: float) -> None:
        self.add(f"phase.{phase}", seconds)
        self.add(f"phase.{phase}.n")

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus direct children's."""
        out: Dict[str, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if t1 is None:
                continue
            out[name] += t1 - t0
            if parent is not None:
                out[self.spans[parent][0]] -= t1 - t0
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def snapshot(self) -> Dict[str, object]:
        return {"self_s": dict(self.self_times()), "calls": dict(self.calls()),
                "counts": dict(self.counts),
                "spans": [list(s) for s in self.spans]}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced layer boundary and install the phase hook."""
        from repro.analytic import backend, batch
        import repro.analytic as analytic
        from repro.baselines import runner
        from repro.buffers.cache import SetAssociativeCache
        from repro.chord.riff import RiffPolicy
        from repro.orchestrator.store import ResultStore
        from repro.score import scheduler
        from repro.sim import engine
        from repro.workloads import registry

        for attr in dir(registry):
            if attr.startswith("build_") and attr.endswith("_dag"):
                self._patch(registry, attr, self.wrap(
                    "workloads.build", getattr(registry, attr)))
        self._patch(scheduler, "classify_dependencies", self.wrap(
            "core.classify", scheduler.classify_dependencies))
        self._patch(scheduler.Score, "schedule", self.wrap(
            "score.schedule", scheduler.Score.schedule))

        model_for = backend.model_for

        def counted_model_for(*args, **kwargs):
            before = backend.model_cache_size()
            model = model_for(*args, **kwargs)
            if backend.model_cache_size() > before:
                self.add("analytic.compiles")
            return model

        traced_model_for = self.wrap("analytic.compile", counted_model_for)
        self._patch(backend, "model_for", traced_model_for)
        self._patch(analytic, "model_for", traced_model_for)

        evaluate_batch = batch.evaluate_batch

        def counted_evaluate(model, knobs):
            self.add("analytic.points_priced", len(knobs))
            return evaluate_batch(model, knobs)

        traced_evaluate = self.wrap("analytic.evaluate", counted_evaluate)
        self._patch(batch, "evaluate_batch", traced_evaluate)
        self._patch(analytic, "evaluate_batch", traced_evaluate)

        self._patch(ResultStore, "__init__", self.wrap(
            "orchestrator.store_open", ResultStore.__init__))
        reload = ResultStore.reload

        def counted_reload(store):
            try:
                self.add("orchestrator.store_reload_bytes",
                         store.path.stat().st_size)
            except OSError:
                pass
            return reload(store)

        self._patch(ResultStore, "reload", self.wrap(
            "orchestrator.store_reload", counted_reload))
        self._patch(ResultStore, "put", self.wrap(
            "orchestrator.store_put", ResultStore.put))

        flush = SetAssociativeCache.flush

        def counted_flush(cache):
            flush(cache)
            self.add("buffers.accesses", cache.stats.accesses)
            self.add("buffers.hits", cache.stats.hits)

        self._patch(SetAssociativeCache, "flush", counted_flush)

        run = engine.ScheduleEngine.run

        def counted_run(eng, *args, **kwargs):
            result = run(eng, *args, **kwargs)
            stats = eng.last_chord.stats
            self.add("chord.hits", stats.hits)
            self.add("chord.misses", stats.misses)
            self.add("chord.evictions", stats.evictions)
            return result

        self._patch(engine.ScheduleEngine, "run", counted_run)

        select_victim = RiffPolicy.select_victim

        def counted_select(policy, *args, **kwargs):
            self.add("chord.victim_selections")
            return select_victim(policy, *args, **kwargs)

        self._patch(RiffPolicy, "select_victim", counted_select)

        peek = runner.peek

        def counted_peek(key):
            base = peek(key)
            self.add("baselines.lookups")
            if base is not None:
                self.add("baselines.memo_hits")
            return base

        self._patch(runner, "peek", counted_peek)
        self._hook_before = engine.get_phase_hook()
        engine.set_phase_hook(self.phase_hook)

    def uninstall(self) -> None:
        from repro.sim import engine

        engine.set_phase_hook(self._hook_before)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered_s(parts: List[Dict[str, object]],
               window: Tuple[float, float]) -> float:
    """Length of the union of every part's root spans within ``window``.
    ``perf_counter`` is the system-wide monotonic clock, so spans of
    different processes on one host compare directly."""
    start, end = window
    intervals = sorted((max(t0, start), min(t1, end))
                       for part in parts
                       for _, t0, t1, parent in part["spans"]
                       if parent is None and t1 is not None)
    covered, reach = 0.0, start
    for t0, t1 in intervals:
        t0 = max(t0, reach)
        if t1 > t0:
            covered += t1 - t0
            reach = t1
    return covered


def layer_metrics(parts: List[Dict[str, object]],
                  window: Tuple[float, float], overhead: float,
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Fold recorder snapshots (one per traced process) into the
    per-layer metrics of ``BENCHMARK.json``.  ``window`` is the traced
    pass's (start, end) on ``perf_counter``; ``extra`` supplies the
    metrics measured elsewhere (tuner, service).  ``other_s`` is the
    window's time in no root span and no engine phase (phases run
    outside every wrapped function)."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, float] = defaultdict(float)
    for part in parts:
        for k, v in part["self_s"].items():
            self_s[k] += v
        for k, v in part["calls"].items():
            calls[k] += v
        for k, v in part["counts"].items():
            counts[k] += v
    kernel_s = counts["phase.cache-kernel"]
    chord_reads = counts["chord.hits"] + counts["chord.misses"]
    # A layer a workload never enters reports zero work.
    out = {m["name"]: 0.0 for m in PER_LAYER}
    out.update({
        "buffers.cache_kernel_s": kernel_s,
        "buffers.accesses": counts["buffers.accesses"],
        "buffers.accesses_per_s": _ratio(counts["buffers.accesses"],
                                         kernel_s),
        "buffers.hit_ratio": _ratio(counts["buffers.hits"],
                                    counts["buffers.accesses"]),
        "sim.trace_gen_s": counts["phase.trace-gen"],
        "sim.trace_builds": counts["phase.trace-gen.n"],
        "workloads.build_s": self_s["workloads.build"],
        "workloads.builds": calls["workloads.build"],
        "core.classify_s": self_s["core.classify"],
        "core.classify_calls": calls["core.classify"],
        "score.schedule_s": self_s["score.schedule"],
        "score.schedules": calls["score.schedule"],
        "analytic.compile_s": self_s["analytic.compile"],
        "analytic.compiles": counts["analytic.compiles"],
        "analytic.evaluate_s": self_s["analytic.evaluate"],
        "analytic.points_priced": counts["analytic.points_priced"],
        "chord.account_s": counts["phase.chord-accounting"],
        "chord.victim_selections": counts["chord.victim_selections"],
        "chord.evictions": counts["chord.evictions"],
        "chord.hit_ratio": _ratio(counts["chord.hits"], chord_reads),
        "baselines.memo_hit_ratio": _ratio(counts["baselines.memo_hits"],
                                           counts["baselines.lookups"]),
        "orchestrator.store_open_s": self_s["orchestrator.store_open"],
        "orchestrator.store_reloads": calls["orchestrator.store_reload"],
        "orchestrator.store_reload_s": self_s["orchestrator.store_reload"],
        "orchestrator.store_reload_bytes":
            counts["orchestrator.store_reload_bytes"],
        "trace.overhead": overhead,
        "other_s": max(0.0, window[1] - window[0] - _covered_s(parts, window)
                       - sum(counts[f"phase.{p}"] for p in PHASES)),
    })
    out.update(extra or {})
    return out
