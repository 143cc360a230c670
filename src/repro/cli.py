"""Command-line interface: regenerate any paper table/figure, run custom
sweeps, and manage the persistent result cache.

Usage::

    python -m repro list                 # show available experiments
    python -m repro list-workloads       # show every registered workload
    python -m repro fig12                # regenerate Fig. 12 (CG performance)
    python -m repro fig16a fig16c        # several at once
    python -m repro ext                  # extension families vs baselines
    python -m repro all --jobs 4         # everything, sweeps 4-wide
    python -m repro sweep --workloads 'cg/*' --configs Flexagon,CELLO
    python -m repro tune gmres/fv1/m=8/N=1 --strategy grid
    python -m repro cache stat           # persistent-cache hit counters
    python -m repro cache clear
    python -m repro bench --quick        # hot-path kernels -> BENCH_kernels.json
    python -m repro serve                # long-lived simulation service
    python -m repro gateway --shards 8643,8644,8645   # sharded fabric
    python -m repro submit --workloads 'cg/*' --configs CELLO
    python -m repro submit --tune gmres/fv1/m=8/N=1
    python -m repro jobs [--stats|--topology|--cancel ID|--shutdown]
    python -m repro metrics [--watch]    # live operational counters

Experiment and sweep runs read/write an on-disk result store
(``~/.cache/repro`` by default; override with ``--cache-dir`` or the
``REPRO_CACHE_DIR`` environment variable, disable with ``--no-cache``),
so repeat invocations replay simulations instead of re-running them.
``--jobs N`` fans uncached sweep points out over N worker processes;
reports are byte-identical to the serial path either way.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from .analysis.report import render_table
from .baselines import runner
from .baselines.configs import MAIN_CONFIGS, config_names
from .experiments import (
    ext_workloads,
    fig01_fig07_dag,
    fig02_roofline,
    fig08_multinode,
    fig12_cg_performance,
    fig13_gnn_bicgstab,
    fig14_energy,
    fig15_area_energy,
    fig16a_resnet,
    fig16b_sram_sweep,
    fig16c_prelude_only,
    sec6b_searchspace,
    table01_hpcg,
    table02_schedulers,
    table03_buffers,
    tune_study,
)
from .hw.config import GB, MIB
from .orchestrator import ResultStore, SweepSpec, run_sweep
from .workloads.registry import is_resolvable

#: Each experiment takes ``jobs`` (worker processes for its sweep; modules
#: without a sweep ignore it) and returns its report text.
EXPERIMENTS: Dict[str, Callable[[int], str]] = {
    "ext": lambda jobs: ext_workloads.report(jobs=jobs),
    "fig1": lambda jobs: fig01_fig07_dag.report(),
    "fig2": lambda jobs: fig02_roofline.report(),
    "fig7": lambda jobs: fig01_fig07_dag.report(),
    "fig8": lambda jobs: fig08_multinode.report(),
    "fig12": lambda jobs: fig12_cg_performance.report(jobs=jobs),
    "fig13": lambda jobs: fig13_gnn_bicgstab.report(jobs=jobs),
    "fig14": lambda jobs: fig14_energy.report(jobs=jobs),
    "fig15": lambda jobs: fig15_area_energy.report(),
    "fig16a": lambda jobs: fig16a_resnet.report(jobs=jobs),
    "fig16b": lambda jobs: fig16b_sram_sweep.report(jobs=jobs),
    "fig16c": lambda jobs: fig16c_prelude_only.report(jobs=jobs),
    "table1": lambda jobs: table01_hpcg.report(),
    "table2": lambda jobs: table02_schedulers.report(),
    "table3": lambda jobs: table03_buffers.report(),
    "sec6b": lambda jobs: sec6b_searchspace.report(),
    "autotune": lambda jobs: tune_study.report(jobs=jobs),
    "fidelity": lambda jobs: _fidelity_report(jobs),
}


def _fidelity_report(jobs: int) -> str:
    from .analysis.fidelity_report import report

    return report(jobs=jobs)

DESCRIPTIONS: Dict[str, str] = {
    "ext": "extension workloads (transformer/GMRES/multigrid) vs baselines",
    "fig1": "CG tensor dependency DAG (text rendering, also covers fig7)",
    "fig2": "arithmetic intensity + roofline, regular vs skewed GEMM",
    "fig7": "Algorithm 2 output: dominance letters + dependency classes",
    "fig8": "multi-node NoC traffic: op split vs dominant-rank split",
    "fig12": "CG performance across datasets/N/bandwidth (main result)",
    "fig13": "GNN and BiCGStab performance",
    "fig14": "off-chip energy relative to the explicit baseline",
    "fig15": "area and energy of 4MB buffet/cache/CHORD",
    "fig16a": "ResNet residual block (with the SET baseline)",
    "fig16b": "CELLO vs CHORD capacity sweep",
    "fig16c": "PRELUDE-only configuration study",
    "table1": "HPCG vs HPL on top supercomputers",
    "table2": "scheduler capability matrix (live-verified)",
    "table3": "buffer mechanism matrix (live-verified)",
    "sec6b": "buffer-allocation search-space sizes",
    "autotune": "co-design autotuning study: searched best vs fixed CELLO",
    "fidelity": "analytic model audit: predicted vs simulated DRAM traffic",
}


def list_experiments() -> str:
    lines = ["Available experiments:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:8s} {DESCRIPTIONS[name]}")
    lines.append("")
    lines.append("Other commands:")
    lines.append("  list-workloads  show every registered workload name")
    lines.append("  sweep    run a custom (workload x config x sram x bw) sweep")
    lines.append("  tune     co-design autotuner: Pareto search per workload")
    lines.append("  cache    persistent result cache: stat | clear")
    lines.append("  bench    time simulator hot paths, write BENCH_kernels.json")
    lines.append("  serve    run the simulation service daemon (docs/service.md)")
    lines.append("  gateway  front N daemons as one sharded fabric endpoint")
    lines.append("  submit   send a sweep or tune job to a running service")
    lines.append("  jobs     list service jobs; --stats, --topology, "
                 "--cancel, --shutdown")
    lines.append("  metrics  live service counters: queue, dedup, rates; "
                 "--watch to poll")
    return "\n".join(lines)


def list_workloads() -> str:
    """Render the registry: every canonical workload name by family.

    These names are what ``repro sweep --workloads`` patterns match and
    what the result store keys on; ``docs/extending.md`` explains the
    name grammar for each family.
    """
    from .workloads.registry import all_workloads

    by_family: Dict[str, List[str]] = {}
    descriptions: Dict[str, str] = {}
    for name, w in all_workloads().items():
        by_family.setdefault(w.family, []).append(name)
        descriptions[name] = w.description
    lines = ["Registered workloads (see docs/workloads.md):"]
    for family, names in by_family.items():
        lines.append(f"  [{family}]")
        for n in names:
            lines.append(f"    {n:32s} {descriptions[n]}")
    return "\n".join(lines)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent result-store directory (default ~/.cache/repro "
             "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the persistent result store",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for sweeps (0 = one per core; default 1)",
    )


def _install_store(args: argparse.Namespace) -> Optional[ResultStore]:
    if args.no_cache:
        runner.set_store(None)
        return None
    store = ResultStore(args.cache_dir)
    runner.set_store(store)
    return store


def _jobs_arg(args: argparse.Namespace) -> Optional[int]:
    return None if args.jobs == 0 else max(1, args.jobs)


def _run_experiments(args: argparse.Namespace) -> int:
    targets = args.experiments
    if targets == ["all"]:
        targets = sorted(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(list_experiments(), file=sys.stderr)
        return 2

    store = _install_store(args)
    jobs = _jobs_arg(args)
    try:
        seen = set()
        for t in targets:
            if t in seen:
                continue
            seen.add(t)
            print(f"=== {t}: {DESCRIPTIONS[t]} ===")
            print(EXPERIMENTS[t](jobs))
            print()
    finally:
        if store is not None:
            store.save_stats()
        runner.set_store(None)
    return 0


def _parse_floats(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _split_configs(text: str) -> List[str]:
    """Split a comma-separated config list, respecting brackets —
    ``CELLO[riff=0,retire=0]`` is one name, not two."""
    out: List[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "," and depth == 0:
            if current.strip():
                out.append(current.strip())
            current = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        current += ch
    if current.strip():
        out.append(current.strip())
    return out


def _check_configs(configs: List[str]) -> bool:
    """Validate Table IV config names; prints the error for the caller."""
    from .baselines.configs import unknown_config_error

    error = unknown_config_error(configs)
    if error is not None:
        print(error, file=sys.stderr)
        return False
    return True


def _sweep_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a custom (workload x config x SRAM x bandwidth) sweep.",
    )
    parser.add_argument(
        "--workloads", default="*", metavar="PATTERNS",
        help="comma-separated registry names or fnmatch patterns "
             "(e.g. 'cg/*,gnn/cora'; default: every registered workload)",
    )
    parser.add_argument(
        "--configs", default=",".join(MAIN_CONFIGS), metavar="NAMES",
        help=f"comma-separated Table IV configs (default: main five; "
             f"known: {', '.join(config_names())})",
    )
    parser.add_argument(
        "--sram-mb", default="", metavar="MBS",
        help="comma-separated SRAM sizes in MiB (default: 4)",
    )
    parser.add_argument(
        "--bandwidth-gb", default="", metavar="GBS",
        help="comma-separated DRAM bandwidths in GB/s (default: 1000)",
    )
    _add_cache_args(parser)
    args = parser.parse_args(argv)

    configs = _split_configs(args.configs)
    if not _check_configs(configs):
        return 2

    spec = SweepSpec(
        workloads=tuple(w for w in args.workloads.split(",") if w.strip()),
        configs=tuple(configs),
        sram_bytes=tuple(int(m * MIB) for m in _parse_floats(args.sram_mb)),
        bandwidths=tuple(g * GB for g in _parse_floats(args.bandwidth_gb)),
    )
    points = spec.points()
    if not points:
        print("sweep matched no (workload, config) points", file=sys.stderr)
        return 2
    bad = sorted({p.workload for p in points if not is_resolvable(p.workload)})
    if bad:
        from .workloads.registry import all_workloads

        print(f"unknown workload(s): {', '.join(bad)}; "
              f"known: {', '.join(sorted(all_workloads()))}", file=sys.stderr)
        return 2

    store = _install_store(args)
    try:
        results = run_sweep(spec, jobs=_jobs_arg(args))
    finally:
        if store is not None:
            store.save_stats()
        runner.set_store(None)

    rows = []
    for p, r in zip(points, results):
        rows.append([
            p.workload,
            p.config,
            p.cfg.sram_bytes / MIB,
            p.cfg.dram_bandwidth_bytes_per_s / GB,
            r.dram_bytes / 1e6,
            r.throughput_gmacs,
            "mem" if r.memory_bound else "compute",
        ])
    print(render_table(
        ["workload", "config", "SRAM MB", "BW GB/s", "DRAM MB", "GMAC/s", "bound"],
        rows,
        title=f"Sweep: {len(points)} points",
    ))
    return 0


def _tune_main(argv: List[str]) -> int:
    from .analysis.tuner_report import render_tune_result, tune_results_json
    from .tuner import STRATEGIES, TuneSpace, make_strategy, tune
    from .tuner.pareto import OBJECTIVES, DEFAULT_OBJECTIVES

    parser = argparse.ArgumentParser(
        prog="repro tune",
        description="Search the co-design space (schedule knobs x CHORD/"
                    "hardware knobs) of one or more workloads and report "
                    "the Pareto frontier next to the fixed CELLO point.",
    )
    parser.add_argument(
        "workloads", nargs="+", metavar="WORKLOAD",
        help="registry workload name(s), e.g. gmres/fv1/m=8/N=1 "
             "(see 'repro list-workloads')",
    )
    parser.add_argument(
        "--strategy", default="grid", choices=sorted(STRATEGIES),
        help="search strategy (default grid — the spaces are small)",
    )
    parser.add_argument(
        "--budget", type=int, default=32, metavar="N",
        help="evaluation budget for random/halving (default 32)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="sampling seed for random/halving (default 0)",
    )
    parser.add_argument(
        "--objectives", default=",".join(DEFAULT_OBJECTIVES) + ",area",
        metavar="NAMES",
        help=f"comma-separated minimisation objectives, primary first "
             f"(known: {', '.join(OBJECTIVES)}; default runtime,dram,area)",
    )
    parser.add_argument(
        "--sram-mb", default="4,1", metavar="MBS",
        help="comma-separated SRAM capacities in MiB, paper point first "
             "(default 4,1)",
    )
    parser.add_argument(
        "--entries", default="64,16", metavar="NS",
        help="comma-separated RIFF index-table sizes, paper point first "
             "(default 64,16)",
    )
    parser.add_argument(
        "--include-baselines", action="store_true",
        help="add the Flex+LRU/BRRIP/SRRIP cache policies to the space",
    )
    parser.add_argument(
        "--fidelity", default="exact", choices=("exact", "analytic", "hybrid"),
        help="evaluation fidelity: exact simulates everything, analytic "
             "prices supported points by the closed-form model, hybrid "
             "simulates only the analytically non-dominated survivors "
             "(default exact; see docs/analytic.md)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full results as JSON to PATH",
    )
    _add_cache_args(parser)
    args = parser.parse_args(argv)

    bad = [w for w in args.workloads if not is_resolvable(w)]
    if bad:
        print(f"unknown workload(s): {', '.join(bad)}; "
              "see 'repro list-workloads'", file=sys.stderr)
        return 2
    try:
        srams = tuple(int(m * MIB) for m in _parse_floats(args.sram_mb))
        entries = tuple(int(e) for e in _parse_floats(args.entries))
        space = TuneSpace(
            chord_entries=entries or (64,),
            sram_bytes=srams or (4 * MIB,),
            cache_policies=("LRU", "BRRIP", "SRRIP")
            if args.include_baselines else (),
        )
        objectives = tuple(
            n.strip() for n in args.objectives.split(",") if n.strip()
        )
    except ValueError as exc:
        print(f"invalid tune space: {exc}", file=sys.stderr)
        return 2

    store = _install_store(args)
    jobs = _jobs_arg(args)
    results = []
    try:
        for w in args.workloads:
            try:
                results.append(tune(
                    w, space=space,
                    strategy=make_strategy(args.strategy, budget=args.budget,
                                           seed=args.seed),
                    objectives=objectives, jobs=jobs,
                    fidelity=args.fidelity,
                ))
            except (KeyError, ValueError) as exc:
                print(f"tune failed for {w!r}: {exc}", file=sys.stderr)
                return 2
            print(render_tune_result(results[-1]))
            print()
    finally:
        if store is not None:
            store.save_stats()
        runner.set_store(None)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(tune_results_json(results),
                                   encoding="utf-8")
        print(f"wrote {args.json}")
    return 0


def _bench_main(argv: List[str]) -> int:
    from .analysis.kernel_bench import (
        DEFAULT_OUT, render_bench, run_kernel_bench, write_bench_json,
    )

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark the simulation hot paths (cache kernels, "
                    "CHORD events, engines) and record the results.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="~10x smaller workloads (CI smoke runs)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=DEFAULT_OUT,
        help=f"output JSON path (default ./{DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    report = run_kernel_bench(quick=args.quick)
    print(render_bench(report))
    path = write_bench_json(report, args.out)
    print(f"\nwrote {path}")
    return 0


def _cache_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or clear the persistent result store.",
    )
    parser.add_argument("action", choices=("stat", "clear"))
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="store directory (default ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    args = parser.parse_args(argv)
    store = ResultStore(args.cache_dir)
    if args.action == "stat":
        print(store.describe())
    else:
        dropped = store.clear()
        print(f"cleared {dropped} cached result(s) from {store.directory}")
    return 0


def _add_service_addr_args(parser: argparse.ArgumentParser) -> None:
    from .service.protocol import DEFAULT_HOST, default_port

    parser.add_argument(
        "--host", default=DEFAULT_HOST, metavar="HOST",
        help=f"service address (default {DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=default_port(), metavar="PORT",
        help="service port (default $REPRO_SERVICE_PORT or 8642)",
    )


def _add_daemon_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-json", nargs="?", const="-", default=None, metavar="PATH",
        help="write one JSON line per served request to PATH "
             "(default stderr)",
    )
    parser.add_argument(
        "--prom-port", type=int, default=None, metavar="N",
        help="serve Prometheus text-format metrics on this port "
             "(GET /metrics; 0 picks a free port)",
    )


def _daemon_obs_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """``request_log`` / ``prom_port`` constructor arguments of either
    daemon role, from :func:`_add_daemon_obs_args` flags."""
    from .service import RequestLog

    return {"request_log": (RequestLog.open(args.log_json)
                            if args.log_json is not None else None),
            "prom_port": args.prom_port}


def _run_daemon(daemon, args: argparse.Namespace) -> int:
    """Serve ``daemon`` (either role) until interrupted or shut down."""
    import asyncio

    try:
        asyncio.run(daemon.run(announce=print))
    except KeyboardInterrupt:
        print(f"repro {daemon.NAME} interrupted; shutting down",
              file=sys.stderr)
    except OSError as exc:
        print(f"cannot serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    return 0


def _serve_main(argv: List[str]) -> int:
    from .service import SimulationService

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the simulation service: a long-lived daemon with "
                    "a resident result store and pre-warmed worker pool "
                    "(protocol/ops: docs/service.md).",
    )
    _add_service_addr_args(parser)
    parser.add_argument(
        "--jobs", "-j", type=int, default=0, metavar="N",
        help="simulation worker processes (0 = one per core; default 0)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent result-store directory (default ~/.cache/repro "
             "or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="serve from memory only; nothing persists across restarts",
    )
    parser.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="bounded simulation-queue depth (backpressure; default 1024)",
    )
    parser.add_argument(
        "--batch-window-ms", type=float, default=20.0, metavar="MS",
        help="how long the dispatcher waits to batch concurrent clients' "
             "points together (default 20)",
    )
    parser.add_argument(
        "--client-quota", type=int, default=None, metavar="N",
        help="per-client cap on queued points (default: the global "
             "--max-pending bound)",
    )
    parser.add_argument(
        "--bulk-threshold", type=int, default=64, metavar="N",
        help="untagged submissions larger than this schedule as bulk "
             "(sheddable) instead of interactive (default 64)",
    )
    parser.add_argument(
        "--client-weight", action="append", default=[], metavar="NAME=W",
        help="weighted round-robin share for a client id (repeatable; "
             "default weight 1)",
    )
    _add_daemon_obs_args(parser)
    parser.add_argument(
        "--phase-profile", action="store_true",
        help="time trace-gen / cache-kernel / CHORD-accounting phases "
             "per simulation and fold them into the metrics histograms",
    )
    args = parser.parse_args(argv)

    weights = {}
    for spec in args.client_weight:
        name, sep, value = spec.partition("=")
        if not sep or not name.strip():
            print(f"bad --client-weight {spec!r}: expected NAME=W",
                  file=sys.stderr)
            return 2
        try:
            weights[name.strip()] = int(value)
        except ValueError:
            print(f"bad --client-weight {spec!r}: weight must be an "
                  "integer", file=sys.stderr)
            return 2

    service = SimulationService(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        use_store=not args.no_cache,
        jobs=None if args.jobs == 0 else max(1, args.jobs),
        max_pending=args.max_pending,
        batch_window_s=args.batch_window_ms / 1000.0,
        quota=args.client_quota,
        weights=weights,
        bulk_threshold=args.bulk_threshold,
        phase_profile=args.phase_profile,
        **_daemon_obs_kwargs(args),
    )
    return _run_daemon(service, args)


def _gateway_main(argv: List[str]) -> int:
    from .service import GatewayService, parse_shard_addrs

    parser = argparse.ArgumentParser(
        prog="repro gateway",
        description="Front N running 'repro serve' shards as one "
                    "endpoint: routes sweep points by consistent hash of "
                    "their traffic key, merges the result streams, and "
                    "requeues a dead shard's points onto the survivors "
                    "(topology/failure semantics: docs/service.md).",
    )
    _add_service_addr_args(parser)
    parser.add_argument(
        "--shards", required=True, metavar="ADDRS",
        help="comma-separated shard addresses (host:port, or bare port "
             "for localhost), e.g. '8643,8644,8645'",
    )
    parser.add_argument(
        "--replicas", type=int, default=64, metavar="N",
        help="virtual nodes per shard on the hash ring (default 64)",
    )
    parser.add_argument(
        "--health-interval", type=float, default=2.0, metavar="S",
        help="seconds between shard health pings (default 2)",
    )
    parser.add_argument(
        "--ping-timeout", type=float, default=5.0, metavar="S",
        help="health-ping timeout before a shard is marked down "
             "(default 5)",
    )
    parser.add_argument(
        "--shard-read-timeout", type=float, default=600.0, metavar="S",
        help="per-line read timeout on shard result streams; exceeding "
             "it requeues the shard's remaining points (default 600)",
    )
    _add_daemon_obs_args(parser)
    args = parser.parse_args(argv)

    try:
        shards = parse_shard_addrs(
            [s for s in args.shards.split(",") if s.strip()])
    except ValueError as exc:
        print(f"bad --shards: {exc}", file=sys.stderr)
        return 2
    gateway = GatewayService(
        shards,
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        health_interval_s=args.health_interval,
        ping_timeout_s=args.ping_timeout,
        shard_read_timeout_s=args.shard_read_timeout,
        **_daemon_obs_kwargs(args),
    )
    return _run_daemon(gateway, args)


def _submit_main(argv: List[str]) -> int:
    from .analysis.service_report import (
        summarize_sweep_outcome,
        sweep_outcome_rows,
    )
    from .service import JobFailed, ServiceClient, ServiceError

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a sweep (default) or tune job to a running "
                    "'repro serve' daemon and stream its results.",
    )
    _add_service_addr_args(parser)
    parser.add_argument(
        "--workloads", default=None, metavar="PATTERNS",
        help="comma-separated registry names or fnmatch patterns for a "
             "sweep job (e.g. 'cg/*,gnn/cora')",
    )
    parser.add_argument(
        "--configs", default=",".join(MAIN_CONFIGS), metavar="NAMES",
        help="comma-separated Table IV configs (default: main five)",
    )
    parser.add_argument(
        "--sram-mb", default="", metavar="MBS",
        help="comma-separated SRAM sizes in MiB (default: 4)",
    )
    parser.add_argument(
        "--bandwidth-gb", default="", metavar="GBS",
        help="comma-separated DRAM bandwidths in GB/s (default: 1000)",
    )
    parser.add_argument(
        "--tune", metavar="WORKLOAD", default=None,
        help="submit a tune job for this workload instead of a sweep",
    )
    parser.add_argument(
        "--strategy", default="grid", metavar="NAME",
        help="tune search strategy (default grid)",
    )
    parser.add_argument(
        "--budget", type=int, default=32, metavar="N",
        help="tune evaluation budget for random/halving (default 32)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="tune sampling seed (default 0)",
    )
    parser.add_argument(
        "--entries", default="64", metavar="NS",
        help="tune: comma-separated RIFF index-table sizes (default 64)",
    )
    parser.add_argument(
        "--tune-sram-mb", default="4", metavar="MBS",
        help="tune: comma-separated SRAM capacities in MiB (default 4)",
    )
    parser.add_argument(
        "--include-baselines", action="store_true",
        help="tune: add Flex+LRU/BRRIP/SRRIP cache policies to the space",
    )
    parser.add_argument(
        "--fidelity", default="exact",
        choices=("exact", "analytic", "hybrid"),
        help="tune: evaluation fidelity (default exact; analytic/hybrid "
             "need a protocol-v3 daemon)",
    )
    parser.add_argument(
        "--client", default=os.environ.get("REPRO_CLIENT"), metavar="ID",
        help="tenant id for fair scheduling and request logs "
             "(default $REPRO_CLIENT, else anonymous)",
    )
    parser.add_argument(
        "--priority", default=None, choices=("interactive", "bulk"),
        help="scheduling class; default: by size against the server's "
             "bulk threshold",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="mint a trace id for the submission (protocol v6): every "
             "hop it takes through the fabric logs the same trace_id, "
             "printed at the end for grepping the request logs",
    )
    args = parser.parse_args(argv)

    if args.tune is None and args.workloads is None:
        print("nothing to submit: pass --workloads PATTERNS (sweep) or "
              "--tune WORKLOAD", file=sys.stderr)
        return 2

    configs = _split_configs(args.configs)
    if args.tune is None and not _check_configs(configs):
        return 2

    def _on_retry(attempt: int, delay: float, exc: Exception) -> None:
        print(f"server overloaded ({exc}); retry {attempt} in "
              f"{delay:.1f}s", file=sys.stderr)

    try:
        with ServiceClient(host=args.host, port=args.port,
                           client_id=args.client,
                           trace=args.trace) as client:
            if args.tune is not None:
                from .analysis.tuner_report import render_tune_result
                from .tuner import TuneResult

                data = client.submit_tune(
                    args.tune,
                    strategy=args.strategy,
                    budget=args.budget,
                    seed=args.seed,
                    sram_mb=_parse_floats(args.tune_sram_mb) or [4.0],
                    entries=[int(e) for e in _parse_floats(args.entries)]
                    or [64],
                    include_baselines=args.include_baselines,
                    fidelity=args.fidelity,
                )
                print(render_tune_result(TuneResult.from_dict(data)))
                if client.last_trace_id is not None:
                    print(f"trace id: {client.last_trace_id}")
                return 0
            outcome = client.submit_sweep(
                workloads=[w for w in args.workloads.split(",")
                           if w.strip()],
                configs=configs,
                sram_mb=_parse_floats(args.sram_mb),
                bandwidth_gb=_parse_floats(args.bandwidth_gb),
                priority=args.priority,
                on_retry=_on_retry,
            )
    except (ServiceError, JobFailed) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2

    print(render_table(
        ["workload", "config", "SRAM MB", "BW GB/s", "DRAM MB", "GMAC/s",
         "bound"],
        sweep_outcome_rows(outcome.points),
        title=f"Sweep job {outcome.job_id}: {len(outcome.points)} points",
    ))
    print(summarize_sweep_outcome(outcome))
    if outcome.trace_id is not None:
        print(f"trace id: {outcome.trace_id}")
    return 0


def _jobs_main(argv: List[str]) -> int:
    from .analysis.service_report import (
        render_jobs,
        render_service_stats,
        render_topology,
    )
    from .service import ServiceClient, ServiceError

    parser = argparse.ArgumentParser(
        prog="repro jobs",
        description="Inspect a running 'repro serve' daemon or 'repro "
                    "gateway': list jobs (default), show stats or "
                    "topology, cancel a job, or shut it down.",
    )
    _add_service_addr_args(parser)
    parser.add_argument(
        "--stats", action="store_true",
        help="show server throughput / store / pool counters instead",
    )
    parser.add_argument(
        "--topology", action="store_true",
        help="show what the endpoint is: a lone shard, or a gateway's "
             "ring and per-shard health",
    )
    parser.add_argument(
        "--cancel", metavar="JOB", default=None,
        help="cancel the given running job id",
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="ask the service to shut down cleanly",
    )
    args = parser.parse_args(argv)

    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            if args.cancel is not None:
                client.cancel(args.cancel)
                print(f"cancelled {args.cancel}")
            elif args.shutdown:
                client.shutdown()
                print("service shutting down")
            elif args.topology:
                print(render_topology(client.topology()))
            elif args.stats:
                print(render_service_stats(client.stats()))
            else:
                print(render_jobs(client.jobs()))
    except ServiceError as exc:
        print(f"jobs query failed: {exc}", file=sys.stderr)
        return 2
    return 0


def _metrics_main(argv: List[str]) -> int:
    import json as json_mod
    import time

    from .analysis.service_report import render_metrics
    from .service import (
        ServiceClient,
        ServiceConnectionError,
        ServiceError,
        render_prometheus,
    )

    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Show a running daemon's or gateway's operational "
                    "counters: queue depth, dedup split, windowed "
                    "throughput rates, latency percentiles, store hit "
                    "rate, per-shard health.",
    )
    _add_service_addr_args(parser)
    parser.add_argument(
        "--watch", action="store_true",
        help="poll and re-render until interrupted (survives daemon "
             "restarts: reconnects and keeps polling)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between --watch polls (default 2)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw metrics message instead of the report",
    )
    parser.add_argument(
        "--prom", action="store_true",
        help="print the metrics in Prometheus text exposition format "
             "(same body a --prom-port scrape returns)",
    )
    args = parser.parse_args(argv)

    def render_once(client: "ServiceClient") -> None:
        msg = client.metrics()
        if args.prom:
            sys.stdout.write(render_prometheus(msg))
            sys.stdout.flush()
        elif args.json:
            print(json_mod.dumps(msg, indent=2, sort_keys=True))
        else:
            print(render_metrics(msg))

    def connect() -> "ServiceClient":
        return ServiceClient(host=args.host, port=args.port)

    client: "ServiceClient | None" = None
    try:
        # The first poll is strict: if nothing answers, fail like any
        # one-shot query would.
        client = connect()
        render_once(client)
        while args.watch:
            time.sleep(max(0.1, args.interval))
            print()
            try:
                if client is None:
                    client = connect()
                render_once(client)
            except (ServiceConnectionError, ServiceError) as exc:
                # Mid-watch death or restart: surface the role-aware
                # diagnosis (what to restart, what survives) once per
                # failed poll and keep polling — the daemon coming back
                # resumes the watch without user action.
                print(f"[watch] {exc}", file=sys.stderr)
                if client is not None:
                    client.close()
                    client = None
    except ServiceError as exc:
        print(f"metrics query failed: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    finally:
        if client is not None:
            client.close()
    return 0


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "list-workloads":
        print(list_workloads())
        return 0
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "tune":
        return _tune_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "gateway":
        return _gateway_main(argv[1:])
    if argv and argv[0] == "submit":
        return _submit_main(argv[1:])
    if argv and argv[0] == "jobs":
        return _jobs_main(argv[1:])
    if argv and argv[0] == "metrics":
        return _metrics_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the CELLO reproduction.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (e.g. fig12 table2), 'all', or 'list'; see "
             "also the 'sweep', 'tune', 'cache', 'bench', 'serve', "
             "'gateway', 'submit', 'jobs' and 'metrics' subcommands",
    )
    _add_cache_args(parser)
    args = parser.parse_args(argv)

    targets = args.experiments or ["list"]
    if targets == ["list"]:
        print(list_experiments())
        return 0
    args.experiments = targets
    return _run_experiments(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
