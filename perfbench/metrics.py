"""Metric and workload tables of the benchmark.

``BENCHMARK.json`` mirrors these tables; ``tests/test_perfbench.py``
checks that the two agree and that every run prints exactly these
names with these units.
"""

from __future__ import annotations

#: ``setup`` says who times set-up: "spawn" -- the parent times the
#: worker process from spawn to ready; "fabric" -- the worker times the
#: service endpoints from spawn to ready.
WORKLOADS = {
    "fig12-cold": {
        "setup": "spawn",
        "why": "repro fig12's paper grid simulated cold: the cache kernel "
               "and trace generation do nearly all the work",
    },
    "tune-gmres": {
        "setup": "spawn",
        "why": "grid and successive-halving hybrid tunes of a complex "
               "GMRES DAG: classify, SCORE, analytic model and CHORD, no "
               "cache kernel",
    },
    "serve-mixed": {
        "setup": "fabric",
        "why": "one closed-loop client through a gateway over two shards "
               "on a 10^4-record store: ten warm reads per cold write",
    },
}

#: End-to-end metrics (host time, untraced).  Every workload reports
#: every one, so only metrics that mean something on all three are here;
#: serve-mixed's per-class latencies are per-layer ``service.*`` metrics
#: (see README.md).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]

PER_LAYER = [
    {"name": "buffers.cache_kernel_s", "unit": "s", "better": "lower"},
    {"name": "buffers.accesses", "unit": "count", "better": "lower"},
    {"name": "buffers.accesses_per_s", "unit": "1/s", "better": "higher"},
    {"name": "buffers.hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "sim.trace_gen_s", "unit": "s", "better": "lower"},
    {"name": "sim.trace_builds", "unit": "count", "better": "lower"},
    {"name": "workloads.build_s", "unit": "s", "better": "lower"},
    {"name": "workloads.builds", "unit": "count", "better": "lower"},
    {"name": "core.classify_s", "unit": "s", "better": "lower"},
    {"name": "core.classify_calls", "unit": "count", "better": "lower"},
    {"name": "score.schedule_s", "unit": "s", "better": "lower"},
    {"name": "score.schedules", "unit": "count", "better": "lower"},
    {"name": "analytic.compile_s", "unit": "s", "better": "lower"},
    {"name": "analytic.compiles", "unit": "count", "better": "lower"},
    {"name": "analytic.evaluate_s", "unit": "s", "better": "lower"},
    {"name": "analytic.points_priced", "unit": "count", "better": "higher"},
    {"name": "tuner.exact_sims", "unit": "count", "better": "lower"},
    {"name": "tuner.survivor_ratio", "unit": "ratio", "better": "lower"},
    {"name": "chord.account_s", "unit": "s", "better": "lower"},
    {"name": "chord.victim_selections", "unit": "count", "better": "lower"},
    {"name": "chord.evictions", "unit": "bytes", "better": "lower"},
    {"name": "chord.hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "baselines.simulations", "unit": "count", "better": "lower"},
    {"name": "baselines.memo_hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "orchestrator.store_open_s", "unit": "s", "better": "lower"},
    {"name": "orchestrator.store_reloads", "unit": "count",
     "better": "lower"},
    {"name": "orchestrator.store_reload_s", "unit": "s", "better": "lower"},
    {"name": "orchestrator.store_reload_bytes", "unit": "bytes",
     "better": "lower"},
    {"name": "orchestrator.store_records", "unit": "count",
     "better": "higher"},
    {"name": "service.requests_per_s", "unit": "1/s", "better": "higher"},
    {"name": "service.warm_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "service.warm_p90_ms", "unit": "ms", "better": "lower"},
    {"name": "service.cold_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "service.gateway_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "service.shard_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "service.hop_ms", "unit": "ms", "better": "lower"},
    {"name": "service.warm_hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "service.coalesced", "unit": "count", "better": "lower"},
    {"name": "service.shed", "unit": "count", "better": "lower"},
    {"name": "service.requeued", "unit": "count", "better": "lower"},
    {"name": "service.duplicate_sims", "unit": "count", "better": "lower"},
    {"name": "trace.overhead", "unit": "ratio", "better": "lower"},
    {"name": "other_s", "unit": "s", "better": "lower"},
]
