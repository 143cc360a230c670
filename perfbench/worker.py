"""Runs one benchmark workload; spawned by ``run.py``, not run by hand.

Prints ``READY`` once set-up is done (imports, stores open, inputs
built) and, unless ``--setup-only``, one JSON line with the measured
metrics, the correctness checks and the attempted/failed counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench import Context  # noqa: E402

MODULES = {
    "fig12-cold": "wl_fig12",
    "tune-gmres": "wl_tune",
    "serve-mixed": "wl_serve",
}


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--pins", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ctx = Context(args.workload, args.seed, args.seconds, args.tiny,
                  Path(args.workdir), args.pins)
    module = importlib.import_module(MODULES[args.workload])
    workload = module.Workload(ctx)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        metrics = workload.traced() if args.trace else workload.measure()
    finally:
        workload.close()
    print(json.dumps(ctx.payload(metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
