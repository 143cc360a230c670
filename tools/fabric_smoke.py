#!/usr/bin/env python
"""CI chaos smoke for the sharded simulation fabric.

Stands up the shipped artifact for real — three ``repro serve`` daemon
subprocesses behind line-counting chaos proxies, one ``repro gateway``
over them — then SIGKILLs the shard owning the most of an 8-point sweep
right after its first streamed result.  The run must show:

* the sweep completes with all 8 points and ``requeued >= 1``
  (the dead shard's unfinished points were re-hashed onto survivors);
* a warm resubmit prints ``simulations re-run: 0`` (nothing the dead
  shard had already simulated was simulated again);
* the shared result store holds exactly one record per distinct
  traffic key;
* the gateway's request log holds ``requeue`` records for the
  (untraced) cold sweep whose points total its ``requeued`` count.

The CI job greps the summary lines this script prints; any violated
invariant also fails the process with exit code 1.
"""

import io
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from fabric import (  # noqa: E402  (path bootstrap above)
    Fabric,
    busiest_proxy,
    duplicate_store_keys,
    store_record_keys,
)
from repro.analysis.service_report import (  # noqa: E402
    render_topology,
    summarize_sweep_outcome,
)
from repro.hw.config import GB  # noqa: E402
from repro.orchestrator.spec import SweepSpec  # noqa: E402
from repro.orchestrator.store import ResultStore  # noqa: E402
from repro.service import RequestLog  # noqa: E402

WORKLOADS = ("cg/fv1/N=1", "bicgstab/fv1/N=1", "gnn/cora", "mg/fv1/N=1")
CONFIGS = ("Flexagon", "CELLO")
BANDWIDTH_GB = 1000.0
N_POINTS = 8


def fingerprint(outcome):
    return [(p.workload, p.config,
             json.dumps(p.result.to_dict(), sort_keys=True))
            for p in outcome.points]


def main() -> int:
    points = SweepSpec(workloads=WORKLOADS, configs=CONFIGS,
                       bandwidths=(BANDWIDTH_GB * GB,)).points()
    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-fabric-smoke-") as cache:
        gateway_log = io.StringIO()
        fab = Fabric(cache, n_shards=3, request_log=RequestLog(gateway_log),
                     ping_timeout_s=2.0, health_interval_s=0.5)
        victim = busiest_proxy(fab.proxies, points)
        fab.proxies[victim].plan.kill_after_results = 1
        print(f"fabric: gateway over 3 shards; victim shard "
              f"{fab.proxies[victim].id} dies after its first result")
        with fab:
            with fab.client() as client:
                cold = client.submit_sweep(
                    list(WORKLOADS), configs=list(CONFIGS),
                    bandwidth_gb=[BANDWIDTH_GB])
                print("cold sweep through the chaos:")
                print(summarize_sweep_outcome(cold))
                warm = client.submit_sweep(
                    list(WORKLOADS), configs=list(CONFIGS),
                    bandwidth_gb=[BANDWIDTH_GB])
                print("warm resubmit:")
                print(summarize_sweep_outcome(warm))
                print(render_topology(client.topology()))

        if len(cold.points) != N_POINTS:
            failures.append(f"cold sweep streamed {len(cold.points)} "
                            f"of {N_POINTS} points")
        if cold.requeued < 1:
            failures.append("no points were requeued — the kill missed")
        if warm.simulations != 0:
            failures.append(f"warm resubmit re-ran {warm.simulations} "
                            "simulation(s)")
        if fingerprint(warm) != fingerprint(cold):
            failures.append("warm resubmit diverged from the chaos run")
        logged = sum(r["points"] for r in map(
                         json.loads, gateway_log.getvalue().splitlines())
                     if r["op"] == "requeue" and r["job"] == cold.job_id)
        print(f"requeue records logged for the cold sweep: {logged} "
              f"point(s)")
        if logged != cold.requeued:
            failures.append(f"gateway logged {logged} requeued point(s), "
                            f"the cold sweep reported {cold.requeued}")
        dupes = duplicate_store_keys(fab.results_file())
        if dupes:
            failures.append(f"duplicate store records: {dupes}")
        want_keys = {ResultStore.key_str(p.key()) for p in points}
        got_keys = set(store_record_keys(fab.results_file()))
        if got_keys != want_keys:
            failures.append(
                f"store keys diverge from the grid "
                f"(missing {sorted(want_keys - got_keys)}, "
                f"extra {sorted(got_keys - want_keys)})")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("fabric smoke: all invariants hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
