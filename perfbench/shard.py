"""Shard launcher for the traced serve-mixed pass.

``python perfbench/shard.py serve --port 0 ...`` installs the layer
wrappers of :mod:`layers`, runs ``repro.cli.main`` with the given
arguments, and when the daemon shuts down writes its spans and counters
to ``$PERFBENCH_TRACE_OUT``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main() -> int:
    from repro import cli

    rec = layers.Recorder()
    rec.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        rec.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
