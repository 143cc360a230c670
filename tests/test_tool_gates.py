"""The CI quality gates themselves: package-coverage verification
(``tools/check_coverage.py``) and the bench regression gate
(``tools/check_bench.py``), including the analytic-speedup floor.

The gates guard the repo; these tests guard the gates — a gate that
silently stops failing is worse than no gate at all, so each check is
exercised against synthetic reports on both sides of its threshold.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestCoveragePackages:
    def _report(self, tmp_path, covered, omit=(), dead=()):
        files = {}
        for pkg in covered:
            if pkg in omit:
                continue
            files[f"src/repro/{pkg}/__init__.py"] = {
                "summary": {"covered_lines": 0 if pkg in dead else 5}}
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps({"files": files}))
        return str(path)

    def test_every_package_is_listed(self):
        packages = _tool("check_coverage").top_level_packages()
        # The subsystems this gate exists to protect must all be present.
        for pkg in ("analytic", "tuner", "service", "orchestrator",
                    "analysis", "sim", "chord", "score"):
            assert pkg in packages

    def test_complete_report_passes(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = self._report(tmp_path, cc.top_level_packages())
        assert cc.verify_packages_json(path) == 0
        assert "measured and exercised" in capsys.readouterr().out

    def test_missing_package_fails(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = self._report(tmp_path, cc.top_level_packages(),
                            omit=("analytic",))
        assert cc.verify_packages_json(path) == 1
        err = capsys.readouterr().err
        assert "src/repro/analytic/" in err and "missing" in err

    def test_unexercised_package_fails(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = self._report(tmp_path, cc.top_level_packages(),
                            dead=("analytic",))
        assert cc.verify_packages_json(path) == 1
        assert "no line" in capsys.readouterr().err

    def test_non_coverage_json_rejected(self, tmp_path, capsys):
        cc = _tool("check_coverage")
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"results": {}}))
        assert cc.verify_packages_json(str(path)) == 1
        assert "not a coverage.py JSON report" in capsys.readouterr().err

    def test_package_of_maps_files_to_packages(self):
        cc = _tool("check_coverage")
        assert cc.package_of(
            str(REPO_ROOT / "src/repro/analytic/compiler.py")) == "analytic"
        # Root modules (src/repro/cli.py) belong to no sub-package.
        assert cc.package_of(str(REPO_ROOT / "src/repro/cli.py")) is None
        assert cc.package_of("/somewhere/else/file.py") is None


class TestBenchGate:
    BASE = {
        "results": {
            "cache_lru": {"vector_accesses_per_s": 1e6,
                          "reference_accesses_per_s": 1e5,
                          "speedup": 10.0},
            "cache_engine_g1": {"seconds": 0.5, "accesses_per_s": 2e6},
            "cache_engine_g1_brrip": {"seconds": 0.6,
                                      "accesses_per_s": 1.5e6},
            "analytic_eval": {"analytic_evals_per_s": 1e5,
                              "simulated_evals_per_s": 100.0,
                              "analytic_over_simulated": 1000.0,
                              "batch_evals_per_s": 1e7,
                              "batch_over_pointwise": 100.0},
        }
    }

    def _fresh(self, **overrides):
        fresh = json.loads(json.dumps(self.BASE))
        fresh["results"]["analytic_eval"].update(overrides)
        return fresh

    def test_healthy_report_passes(self):
        cb = _tool("check_bench")
        assert cb.compare(self.BASE, self._fresh(), 10.0, 1.5, 100.0) == []

    def test_analytic_speedup_floor_fails(self):
        cb = _tool("check_bench")
        problems = cb.compare(self.BASE,
                              self._fresh(analytic_over_simulated=40.0),
                              10.0, 1.5, 100.0)
        assert any("analytic_over_simulated" in p for p in problems)

    def test_missing_analytic_ratio_fails(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        del fresh["results"]["analytic_eval"]["analytic_over_simulated"]
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("analytic_over_simulated" in p for p in problems)

    def test_batch_speedup_floor_fails(self):
        cb = _tool("check_bench")
        problems = cb.compare(self.BASE,
                              self._fresh(batch_over_pointwise=20.0),
                              10.0, 1.5, 100.0)
        assert any("batch_over_pointwise" in p for p in problems)

    def test_missing_batch_ratio_fails(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        del fresh["results"]["analytic_eval"]["batch_over_pointwise"]
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("batch_over_pointwise" in p for p in problems)

    def test_rate_regression_still_caught(self):
        cb = _tool("check_bench")
        problems = cb.compare(self.BASE,
                              self._fresh(analytic_evals_per_s=1e3),
                              10.0, 1.5, 100.0)
        assert any("analytic_evals_per_s" in p for p in problems)

    def test_real_trace_rate_regression_caught(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        fresh["results"]["cache_engine_g1_brrip"]["accesses_per_s"] = 1e5
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("cache_engine_g1_brrip.accesses_per_s" in p
                   for p in problems)

    def test_dropped_bench_still_caught(self):
        cb = _tool("check_bench")
        fresh = json.loads(json.dumps(self.BASE))
        del fresh["results"]["analytic_eval"]
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("missing from" in p for p in problems)

    def test_fresh_only_bench_fails_without_allow_new(self):
        cb = _tool("check_bench")
        fresh = self._fresh()
        fresh["results"]["brand_new"] = {"things_per_s": 1e6}
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0)
        assert any("brand_new" in p and "--allow-new" in p
                   for p in problems)

    def test_allow_new_downgrades_fresh_only_bench_to_a_note(
            self, capsys):
        cb = _tool("check_bench")
        fresh = self._fresh()
        fresh["results"]["brand_new"] = {"things_per_s": 1e6}
        problems = cb.compare(self.BASE, fresh, 10.0, 1.5, 100.0,
                              allow_new=True)
        assert problems == []
        assert "brand_new" in capsys.readouterr().out

    def test_committed_baseline_carries_the_analytic_bench(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_kernels.json").read_text())
        entry = baseline["results"]["analytic_eval"]
        assert entry["analytic_over_simulated"] >= 100.0
        assert entry["analytic_evals_per_s"] > entry["simulated_evals_per_s"]
        assert entry["batch_over_pointwise"] >= 50.0
        assert entry["batch_points"] >= 100_000

    def test_committed_baseline_carries_the_real_trace_rates(self):
        baseline = json.loads(
            (REPO_ROOT / "BENCH_kernels.json").read_text())
        for name in ("cache_engine_g1", "cache_engine_g1_brrip"):
            assert baseline["results"][name]["accesses_per_s"] > 0


class TestAnalyticBench:
    def test_bench_analytic_eval_measures_both_paths(self):
        from repro.analysis.kernel_bench import bench_analytic_eval

        r = bench_analytic_eval(evals=2, sim_evals=2, batch_points=64)
        assert r["evals"] == 2
        assert r["analytic_evals_per_s"] > 0
        assert r["simulated_evals_per_s"] > 0
        assert r["batch_evals_per_s"] > 0
        # The whole point of the fast path (gated at 100x in CI; tested
        # looser here to keep this robust on loaded machines).
        assert r["analytic_over_simulated"] > 10

    def test_quick_bench_report_includes_analytic_eval(self):
        from repro.analysis.kernel_bench import render_bench

        report = {
            "quick": True,
            "results": {
                "chord_events": {"events_per_s": 1e6},
                "schedule_engine": {"ops_per_s": 1000.0, "seconds": 0.1},
                "cache_engine_g1": {"seconds": 0.5, "dram_bytes": 1e7,
                                    "accesses_per_s": 2e6},
                "cache_engine_g1_brrip": {"seconds": 0.6, "dram_bytes": 1e7,
                                          "accesses_per_s": 1.5e6},
                "analytic_eval": {"analytic_evals_per_s": 1e5,
                                  "simulated_evals_per_s": 100.0,
                                  "analytic_over_simulated": 1000.0,
                                  "batch_evals_per_s": 1e6,
                                  "batch_points": 1e5,
                                  "batch_over_pointwise": 60.0},
            },
        }
        out = render_bench(report)
        assert "analytic eval" in out and "1000x" in out


class TestBenchTrend:
    """The drift detector over committed bench history
    (``tools/bench_trend.py``) — the gate ``check_bench``'s generous
    10x factor cannot provide."""

    @staticmethod
    def _report(rate):
        return {"results": {"kernel": {"ops_per_s": rate,
                                       "seconds": 1.0}}}

    def _files(self, tmp_path, rates):
        paths = []
        for i, rate in enumerate(rates):
            path = tmp_path / f"bench_{i}.json"
            path.write_text(json.dumps(self._report(rate)))
            paths.append(str(path))
        return paths

    def test_steady_history_passes(self, tmp_path, capsys):
        bt = _tool("bench_trend")
        files = self._files(tmp_path, [100.0, 101.0, 99.0, 100.5])
        assert bt.main(["--files", *files]) == 0
        assert "bench trend ok" in capsys.readouterr().out

    def test_compounding_decline_fails(self, tmp_path, capsys):
        bt = _tool("bench_trend")
        # 20% per snapshot: each step passes check_bench's 10x factor,
        # only the trend fit can see it.
        files = self._files(tmp_path, [100.0, 80.0, 64.0, 51.2])
        assert bt.main(["--files", *files]) == 1
        err = capsys.readouterr().err
        assert "kernel.ops_per_s" in err and "declining" in err

    def test_fresh_report_can_tip_the_verdict(self, tmp_path):
        bt = _tool("bench_trend")
        files = self._files(tmp_path, [100.0, 100.0, 100.0])
        steady = str(tmp_path / "steady.json")
        Path(steady).write_text(json.dumps(self._report(99.0)))
        cliff = str(tmp_path / "cliff.json")
        Path(cliff).write_text(json.dumps(self._report(30.0)))
        assert bt.main(["--files", *files, "--fresh", steady]) == 0
        assert bt.main(["--files", *files, "--fresh", cliff]) == 1

    def test_insufficient_history_is_a_pass(self, tmp_path, capsys):
        bt = _tool("bench_trend")
        files = self._files(tmp_path, [100.0, 50.0])  # huge drop, n=2
        assert bt.main(["--files", *files]) == 0
        assert "insufficient history" in capsys.readouterr().out

    def test_window_ignores_ancient_decline(self, tmp_path):
        bt = _tool("bench_trend")
        # Old decline, recent plateau: a window-3 fit sees the plateau.
        files = self._files(tmp_path,
                            [400.0, 200.0, 100.0, 100.0, 100.0])
        assert bt.main(["--files", *files, "--window", "3"]) == 0
        assert bt.main(["--files", *files, "--window", "5"]) == 1

    def test_fit_slope_matches_a_clean_geometric_series(self):
        bt = _tool("bench_trend")
        import math

        slope = bt.fit_slope([100.0, 90.0, 81.0, 72.9])
        assert slope == pytest.approx(math.log(0.9))

    def test_git_mode_reads_the_committed_baseline(self, capsys):
        bt = _tool("bench_trend")
        reports = bt.git_history_reports("BENCH_kernels.json", 50)
        assert reports, "no committed bench history found"
        assert all("results" in r for r in reports)


class TestCiWiring:
    """The workflow file must keep invoking the gates (a gate nobody
    calls protects nothing)."""

    def test_ci_runs_the_gates(self):
        ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        assert "--verify-packages coverage.json" in ci
        assert "--min-analytic-speedup 100" in ci
        assert "--min-batch-speedup 50" in ci
        assert "fidelity-smoke:" in ci
        assert "--fidelity hybrid" in ci
        assert "within 2% bound" in ci
        assert "fidelity: hybrid" in ci

    def test_ci_runs_the_observability_smoke(self):
        ci = (REPO_ROOT / ".github/workflows/ci.yml").read_text()
        assert "metrics-smoke:" in ci
        assert "repro metrics" in ci or "-m repro metrics" in ci
        assert "tools/bench_trend.py" in ci
        assert "fetch-depth: 0" in ci
