#!/usr/bin/env python3
"""End-to-end benchmark of the CELLO reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig12-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the host-noise stamp, which is not a metric.

This file is the parent: it uses only the standard library, spawns the
workload in ``worker.py`` (a process group of its own, so every child,
shards included, is killed on any exit path), times set-up, and removes
its scratch directory ``perfbench/_work/<pid>`` at the end.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Set-up is timed this many times per run (the worker's own start-up
#: plus set-up-only probes); the median is reported.
SETUP_SAMPLES = 3
#: Hard cap on one worker process, inside the 180 s a run may take.
WORKER_TIMEOUT_S = 165.0
#: Fixed pure-Python loop timed before and after each run.
CALIBRATION_ITERS = 300_000
CALIBRATION_REPEATS = 7


def _calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (host speed probe)."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _loadavg() -> List[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


class HostNoise:
    """Host state around a run: load, steal, and the calibration loop
    before and after, so noisy sets of runs can be told apart from
    program changes."""

    def __init__(self) -> None:
        self.load_before = _loadavg()
        self.steal0, self.total0 = _cpu_jiffies()
        self.calib_before = _calibrate()

    def stamp(self) -> Dict[str, object]:
        calib_after = _calibrate()
        steal1, total1 = _cpu_jiffies()
        d_total = total1 - self.total0
        return {
            "loadavg_before": self.load_before,
            "loadavg_after": _loadavg(),
            "steal_s": (steal1 - self.steal0) / os.sysconf("SC_CLK_TCK"),
            "steal_share": (steal1 - self.steal0) / d_total if d_total else 0.0,
            "calibration_before_s": self.calib_before,
            "calibration_after_s": calib_after,
            "nproc": os.cpu_count(),
        }


class Worker:
    """One ``worker.py`` process; lines of its stdout are timestamped."""

    def __init__(self, argv: List[str], env: Dict[str, str]) -> None:
        self.lines: List[Tuple[float, str]] = []
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            start_new_session=True, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append((time.perf_counter(), line.rstrip("\n")))

    def wait(self, timeout: float) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: worker exceeded {timeout:.0f} s; killing it",
                  file=sys.stderr)
            self.kill()
            code = -1
        self._reader.join(timeout=5.0)
        return code

    def kill(self) -> None:
        """Kill the worker's whole process group (shards, gateway) and
        reap the worker."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass

    def ready_s(self) -> float:
        for t, line in self.lines:
            if line == "READY":
                return t - self.t_spawn
        raise RuntimeError("worker never became ready")

    def payload(self) -> Dict[str, object]:
        for _, line in reversed(self.lines):
            if line.startswith("{"):
                try:
                    return json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RuntimeError(f"worker result unreadable: {exc}")
        raise RuntimeError("worker printed no result")


def _finished(argv: List[str], env: Dict[str, str]) -> Worker:
    """Run one worker to its end; its process group is killed after."""
    worker = Worker(argv, env)
    try:
        code = worker.wait(WORKER_TIMEOUT_S)
    finally:
        worker.kill()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return worker


def _worker_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Anything that falls back to the default store lands in the run's
    # scratch directory, never in ~/.cache/repro.
    env["REPRO_CACHE_DIR"] = str(work / "default-store")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run(args: argparse.Namespace, work: Path) -> Dict[str, object]:
    env = _worker_env(work)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(work)]
    if args.tiny:
        argv.append("--tiny")
    if args.pins:
        argv += ["--pins", args.pins]
    timed_setup = WORKLOADS[args.workload]["setup"] == "spawn" \
        and not args.trace
    samples = [_finished(argv + ["--setup-only"], env).ready_s()
               for _ in range(SETUP_SAMPLES - 1 if timed_setup else 0)]
    worker = _finished(argv, env)
    payload = worker.payload()
    if timed_setup:
        samples.append(worker.ready_s())
        payload["metrics"]["setup_s"] = statistics.median(samples)
        payload["info"]["setup_samples_s"] = samples
    return payload


def _report(workload: str, trace: int, payload: Dict[str, object],
            noise: Dict[str, object]) -> Dict[str, object]:
    table = PER_LAYER if trace else END_TO_END
    names = [m["name"] for m in table]
    measured = payload["metrics"]
    missing = [n for n in names if n not in measured]
    if missing:
        raise RuntimeError(f"worker did not measure {', '.join(missing)}")
    units = {m["name"]: m["unit"] for m in table}
    print(f"== perfbench {workload} ({'traced' if trace else 'untraced'}) ==")
    for name in names:
        print(f"  {name:34s} {measured[name]!r:>24} {units[name]}")
    for name, ok in payload["checks"].items():
        print(f"  check {name:40s} {'PASS' if ok else 'FAIL'}")
    for key, value in payload["info"].items():
        print(f"  info  {key:40s} {value}")
    print(f"  attempted {payload['attempted']}, failed {payload['failed']}")
    print(json.dumps({"host_noise": noise}))
    return {
        "correct": bool(payload["failed"] == 0
                        and all(payload["checks"].values())),
        "attempted": int(payload["attempted"]),
        "failed": int(payload["failed"]),
        "metrics": {n: {"value": measured[n], "unit": units[n]}
                    for n in names},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long smoke version (benchmark tests)")
    parser.add_argument("--pins", default=None, metavar="PATH",
                        help="pinned digests to check against "
                             "(default perfbench/pins.json)")
    parser.add_argument("--repin", action="store_true",
                        help="write this run's observed digests into "
                             "perfbench/pins.json (after a deliberate "
                             "change of the program's outputs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    work = HERE / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # SIGTERM unwinds through the finally below like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        noise = HostNoise()
        payload = _run(args, work)
        result = _report(args.workload, args.trace, payload, noise.stamp())
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.repin:
        _repin(args, payload["observed"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _repin(args: argparse.Namespace, observed: Dict[str, object]) -> None:
    path = HERE / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8"))
    key = args.workload + (":tiny" if args.tiny else "")
    pins.setdefault(key, {}).update(observed)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"perfbench: repinned {key} in {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
