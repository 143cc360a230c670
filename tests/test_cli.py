"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import DESCRIPTIONS, EXPERIMENTS, list_experiments, main


class TestCli:
    def test_every_experiment_described(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table2" in out
        assert "bench" in out

    def test_bench_writes_json(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.analysis import kernel_bench

        # Shrink the harness so the CLI test stays fast; the real bars run
        # in benchmarks/bench_perf_kernels.py and the CI bench-smoke job.
        def tiny_bench(quick=False):
            return {
                "schema": kernel_bench.BENCH_SCHEMA,
                "quick": True,
                "results": {
                    "cache_lru": kernel_bench.bench_cache_backends("lru", 20_000),
                    "chord_events": kernel_bench.bench_chord_events(8, 3),
                    "schedule_engine": kernel_bench.bench_schedule_engine(2),
                    "cache_engine_g1": kernel_bench.bench_cache_engine(1),
                    "cache_engine_g1_brrip": kernel_bench.bench_cache_engine(
                        1, "brrip"),
                    "analytic_eval": kernel_bench.bench_analytic_eval(
                        2, sim_evals=1, batch_points=64),
                },
            }

        monkeypatch.setattr(kernel_bench, "run_kernel_bench", tiny_bench)
        out_path = tmp_path / "BENCH_kernels.json"
        assert main(["bench", "--quick", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        lru = report["results"]["cache_lru"]
        assert lru["speedup"] > 1.0
        assert lru["vector_accesses_per_s"] > lru["reference_accesses_per_s"]
        assert report["results"]["analytic_eval"]["analytic_over_simulated"] > 1.0
        for name in ("cache_engine_g1", "cache_engine_g1_brrip"):
            assert report["results"][name]["accesses_per_s"] > 0
        assert "Cache kernel backends" in capsys.readouterr().out

    def test_list_workloads(self, capsys):
        from repro.workloads.registry import all_workloads

        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in all_workloads():
            assert name in out
        for family in ("[cg]", "[xformer]", "[gmres]", "[mg]"):
            assert family in out

    def test_ext_experiment_registered(self):
        assert "ext" in EXPERIMENTS
        assert "ext" in DESCRIPTIONS

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_light_experiment(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "42.6" in out

    def test_run_multiple_dedups(self, capsys):
        assert main(["table2", "table2"]) == 0
        out = capsys.readouterr().out
        assert out.count("=== table2") == 1

    def test_table_experiments_runnable(self, capsys):
        assert main(["table1", "table3", "fig15", "fig8"]) == 0
        out = capsys.readouterr().out
        for marker in ("Frontier", "CHORD", "buffet", "advantage"):
            assert marker in out

    def test_autotune_experiment_registered_and_wired(self, capsys, monkeypatch):
        assert "autotune" in EXPERIMENTS and "autotune" in DESCRIPTIONS
        # The real study runs the full families; check the CLI wiring with
        # a stub so the test stays milliseconds.
        from repro.experiments import tune_study

        monkeypatch.setattr(tune_study, "report",
                            lambda cfg=None, jobs=1: "stub-tune-report")
        assert main(["autotune", "--no-cache"]) == 0
        assert "stub-tune-report" in capsys.readouterr().out

    def test_ext_experiment_wired_through_cli(self, capsys, monkeypatch):
        from repro.experiments import ext_workloads

        calls = {}

        def stub_report(cfg=None, configs=None, jobs=1):
            calls["jobs"] = jobs
            return "stub-ext-report"

        monkeypatch.setattr(ext_workloads, "report", stub_report)
        assert main(["ext", "--no-cache", "--jobs", "3"]) == 0
        assert "stub-ext-report" in capsys.readouterr().out
        assert calls["jobs"] == 3

    def test_ext_mixed_with_unknown_experiment_errors(self, capsys):
        # An unknown sibling aborts the whole invocation before anything
        # heavy runs — 'ext' must not start.
        assert main(["ext", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "fig99" in err


class TestSweepCli:
    def test_unknown_config_rejected(self, capsys):
        assert main(["sweep", "--configs", "CELLO,Bogus", "--no-cache"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_cello_variant_configs_accepted(self, capsys):
        assert main([
            "sweep", "--workloads", "cg/fv1/N=1@it2",
            "--configs", "CELLO[riff=0],Flex+SRRIP", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "CELLO[riff=0]" in out and "Flex+SRRIP" in out

    def test_multi_knob_variant_survives_comma_split(self, capsys):
        # The variant grammar uses commas inside brackets; the config
        # list splitter must not cut through them.
        assert main([
            "sweep", "--workloads", "cg/fv1/N=1@it2",
            "--configs", "CELLO,CELLO[riff=0,retire=0]", "--no-cache",
        ]) == 0
        assert "CELLO[riff=0,retire=0]" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["sweep", "--workloads", "nope/xyz", "--no-cache"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_empty_match_rejected(self, capsys):
        assert main(["sweep", "--workloads", "", "--no-cache"]) == 2
        assert "matched no" in capsys.readouterr().err


class TestTuneCli:
    def test_tune_small_grid(self, capsys, tmp_path):
        out_json = tmp_path / "tune.json"
        assert main([
            "tune", "cg/fv1/N=16@it2", "--strategy", "grid",
            "--sram-mb", "4,1", "--entries", "64",
            "--objectives", "runtime,dram,area",
            "--json", str(out_json), "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto point(s)" in out
        assert "fixed CELLO" in out
        # The JSON artefact round-trips through the public loader.
        import json

        from repro.tuner import TuneResult

        data = json.loads(out_json.read_text())
        tr = TuneResult.from_dict(data[0])
        assert tr.workload == "cg/fv1/N=16@it2"
        assert tr.best.result.time_s <= tr.incumbent.result.time_s

    def test_unknown_workload_rejected(self, capsys):
        assert main(["tune", "rand/s=1/ops=bogus", "--no-cache"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_objective_rejected(self, capsys):
        assert main([
            "tune", "cg/fv1/N=1@it2", "--objectives", "latency", "--no-cache",
        ]) == 2
        assert "tune failed" in capsys.readouterr().err

    def test_invalid_space_rejected(self, capsys):
        assert main([
            "tune", "cg/fv1/N=1@it2", "--entries", "64,64", "--no-cache",
        ]) == 2
        assert "invalid tune space" in capsys.readouterr().err

    def test_unknown_strategy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["tune", "cg/fv1/N=1@it2", "--strategy", "annealing"])
