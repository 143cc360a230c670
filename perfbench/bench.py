"""Helpers shared by the workload modules (run inside ``worker.py``)."""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import layers

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"
#: Span dumps of traced runs (git-ignored; kept after the run).
SPANS_DIR = HERE / "_out"

#: A percentile is reported only with at least this many samples
#: beyond it in its class.
MIN_BEYOND = 10


class Context:
    """What one worker invocation was asked to do, plus its bookkeeping:
    correctness checks, attempted/failed counts and observed digests."""

    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool,
                 workdir: Path, pins_path: Optional[str]) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.workdir = workdir
        path = Path(pins_path) if pins_path else PINS_FILE
        pins = json.loads(path.read_text(encoding="utf-8"))
        self.pin_key = workload + (":tiny" if tiny else "")
        self.pins: Dict[str, object] = pins.get(self.pin_key, {})
        self.checks: Dict[str, bool] = {}
        self.observed: Dict[str, object] = {}
        self.info: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def check(self, name: str, ok: bool) -> bool:
        """Record one check; a name that fails once stays failed."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def check_pin(self, name: str, observed: object) -> bool:
        """Compare ``observed`` with the pinned value ``name``."""
        self.observed[name] = observed
        return self.check(f"pin:{name}", self.pins.get(name) == observed)

    def attempt(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def payload(self, metrics: Dict[str, float]) -> Dict[str, object]:
        return {"metrics": metrics, "checks": self.checks,
                "attempted": self.attempted, "failed": self.failed,
                "observed": self.observed, "info": self.info}


def digest(records: object) -> str:
    """Short stable digest of JSON-serialisable ``records``."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def close(a: float, b: Optional[float], rel: float = 1e-9) -> bool:
    return b is not None and math.isclose(a, b, rel_tol=rel)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples``, refusing estimates with
    fewer than :data:`MIN_BEYOND` samples beyond them."""
    xs = sorted(samples)
    beyond = len(xs) - math.ceil(q * len(xs))
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{round(q * 100)} needs {MIN_BEYOND} samples "
                         f"beyond it; have {len(xs)} in the class")
    return statistics.quantiles(xs, n=100, method="inclusive")[
        round(q * 100) - 1]


def repeat_for(seconds: float, rep: Callable[[int], float],
               min_reps: int = 2) -> List[float]:
    """Run ``rep(i)`` (returns its own timed seconds) until the next
    repetition would end past ``seconds``; at least ``min_reps``."""
    times: List[float] = []
    t0 = time.perf_counter()
    while True:
        times.append(rep(len(times)))
        elapsed = time.perf_counter() - t0
        if (len(times) >= min_reps
                and elapsed + statistics.median(times) > seconds):
            return times


def spans_path(ctx: Context, part: str = "worker") -> str:
    """Where a traced run's spans are written out at exit."""
    SPANS_DIR.mkdir(exist_ok=True)
    return str(SPANS_DIR / f"spans-{ctx.pin_key.replace(':', '-')}-{part}.json")


def trace_rep(ctx: Context, rep: Callable[[int], float],
              simulation_count: Callable[[], int]):
    """One untraced and one traced repetition of an in-process workload.
    Returns (recorder snapshot, traced window, traced / untraced time,
    simulations of the traced repetition)."""
    untraced = rep(0)
    rec = layers.Recorder()
    rec.install()
    try:
        sims0 = simulation_count()
        start = time.perf_counter()
        traced = rep(1)
        window = (start, time.perf_counter())
        sims = simulation_count() - sims0
    finally:
        rec.uninstall()
    rec.dump(spans_path(ctx))
    return rec.snapshot(), window, traced / untraced, sims
