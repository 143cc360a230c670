"""Tests for the co-design autotuner: spaces, Pareto pruning, strategies,
orchestrator-dispatched evaluation, and result round-tripping."""

import json

import pytest

from repro.baselines import runner
from repro.baselines.configs import parse_cello_variant, run_config
from repro.hw.config import MIB, AcceleratorConfig
from repro.orchestrator import ResultStore
from repro.sim.engine import EngineOptions
from repro.tuner import (
    GridStrategy,
    HalvingStrategy,
    ParetoFront,
    RandomStrategy,
    TunePoint,
    TuneResult,
    TuneSpace,
    dominates,
    make_strategy,
    tune,
    validate_objectives,
)
from repro.workloads.registry import resolve_workload

#: Tiny but real workload: 2-iteration block CG (milliseconds per
#: simulation) whose N=16 footprints genuinely contend at 1 MB, so SRAM
#: capacity is a real runtime-vs-area trade-off axis.
WORKLOAD = "cg/fv1/N=16@it2"

#: Small joint space: 8 schedule combos x 2 table sizes x 2 SRAM sizes
#: + 2 cache policies x 2 SRAM sizes = 36 points.
SPACE = TuneSpace(
    chord_entries=(64, 16),
    sram_bytes=(4 * MIB, 1 * MIB),
    cache_policies=("LRU", "SRRIP"),
)


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    runner.clear_cache()
    runner.reset_simulation_count()
    runner.set_store(None)
    yield
    runner.clear_cache()
    runner.set_store(None)


class TestTunePoint:
    def test_default_is_fixed_cello(self):
        p = TunePoint()
        assert p.config_name() == "CELLO"
        assert p.engine_options() == EngineOptions()

    def test_knob_encoding_round_trips_through_config_parser(self):
        p = TunePoint(use_riff=False, charge_swizzle=False)
        options = parse_cello_variant(p.config_name())
        assert options is not None
        assert options.use_riff is False
        assert options.explicit_retire is True
        assert options.charge_swizzle is False

    def test_cache_point_normalises_schedule_knobs(self):
        a = TunePoint(cache_policy="LRU", use_riff=False)
        b = TunePoint(cache_policy="LRU")
        assert a == b
        assert a.config_name() == "Flex+LRU"
        assert a.engine_options() is None

    def test_accel_cfg_substitutes_hardware_knobs(self):
        p = TunePoint(sram_bytes=1 * MIB, line_bytes=32, chord_entries=16)
        cfg = p.accel_cfg(AcceleratorConfig())
        assert (cfg.sram_bytes, cfg.line_bytes, cfg.chord_entries) == (
            1 * MIB, 32, 16)
        # Untouched axes survive from the base.
        assert cfg.n_macs == AcceleratorConfig().n_macs

    def test_knobs_round_trip(self):
        p = TunePoint(explicit_retire=False, sram_bytes=2 * MIB)
        assert TunePoint.from_knobs(p.knobs()) == p

    def test_invalid_points_raise(self):
        with pytest.raises(ValueError):
            TunePoint(cache_policy="FIFO")
        with pytest.raises(ValueError):
            TunePoint(line_bytes=24)
        with pytest.raises(ValueError):
            TunePoint(chord_entries=0)


class TestTuneSpace:
    def test_size_and_enumeration_agree(self):
        pts = SPACE.points()
        assert len(pts) == len(SPACE) == 36
        assert len(set(pts)) == len(pts)

    def test_default_point_is_head_of_axes_and_contained(self):
        d = SPACE.default_point()
        assert d.config_name() == "CELLO"
        assert d.chord_entries == 64 and d.sram_bytes == 4 * MIB
        assert d in SPACE

    def test_sample_without_replacement_exhausts_space(self):
        import random

        assert set(SPACE.sample(random.Random(0), 999)) == set(SPACE.points())
        assert len(SPACE.sample(random.Random(0), 5)) == 5

    def test_neighbors_differ_in_one_axis_and_stay_inside(self):
        d = SPACE.default_point()
        all_points = set(SPACE.points())
        for n in SPACE.neighbors(d):
            assert n != d
            assert n in all_points

    def test_invalid_spaces_raise(self):
        with pytest.raises(ValueError):
            TuneSpace(chord_entries=())
        with pytest.raises(ValueError):
            TuneSpace(sram_bytes=(MIB, MIB))
        with pytest.raises(ValueError):
            TuneSpace(cache_policies=("FIFO",))
        # Every axis value must be a valid TunePoint knob on its own.
        with pytest.raises(ValueError, match="positive"):
            TuneSpace(chord_entries=(64, 0))
        with pytest.raises(ValueError, match="positive"):
            TuneSpace(sram_bytes=(4 * MIB, -MIB))
        with pytest.raises(ValueError, match="power of two"):
            TuneSpace(line_bytes=(16, 24))


class TestParetoFront:
    def test_dominance_pruning(self):
        front = ParetoFront(("runtime", "dram"))
        a, b, c = TunePoint(), TunePoint(use_riff=False), TunePoint(
            explicit_retire=False)
        assert front.add(a, "A", {"runtime": 2.0, "dram": 10.0})
        # Dominated on both axes: rejected.
        assert not front.add(b, "B", {"runtime": 3.0, "dram": 11.0})
        # Trade-off point joins.
        assert front.add(b, "B", {"runtime": 3.0, "dram": 5.0})
        assert len(front) == 2
        # A dominating point evicts everything it dominates.
        assert front.add(c, "C", {"runtime": 1.0, "dram": 4.0})
        assert [e.config for e in front] == ["C"]

    def test_exact_tie_keeps_first_seen(self):
        front = ParetoFront(("runtime",))
        assert front.add(TunePoint(), "first", {"runtime": 1.0})
        assert not front.add(TunePoint(use_riff=False), "second",
                             {"runtime": 1.0})
        assert front.dominated({"runtime": 1.0})
        assert not front.dominated({"runtime": 0.5})

    def test_entries_sorted_by_primary_objective(self):
        front = ParetoFront(("runtime", "dram"))
        front.add(TunePoint(), "slow", {"runtime": 5.0, "dram": 1.0})
        front.add(TunePoint(use_riff=False), "fast", {"runtime": 1.0, "dram": 9.0})
        assert [e.config for e in front.entries] == ["fast", "slow"]

    def test_dominates_requires_equal_length(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_validate_objectives(self):
        assert validate_objectives(["dram", "dram", "runtime"]) == (
            "dram", "runtime")
        with pytest.raises(KeyError):
            validate_objectives(["latency"])
        with pytest.raises(ValueError):
            validate_objectives([])


class TestStrategies:
    def test_make_strategy(self):
        assert isinstance(make_strategy("grid"), GridStrategy)
        assert isinstance(make_strategy("random", budget=7), RandomStrategy)
        assert isinstance(make_strategy("halving", seed=3), HalvingStrategy)
        with pytest.raises(KeyError):
            make_strategy("simulated-annealing")

    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError):
            RandomStrategy(budget=0)
        with pytest.raises(ValueError):
            HalvingStrategy(budget=-1)
        with pytest.raises(ValueError):
            HalvingStrategy(survivors=0)

    def test_grid_refuses_absurd_spaces(self):
        huge = TuneSpace(
            chord_entries=tuple(range(1, 200)),
            sram_bytes=tuple(MIB * i for i in range(1, 9)),
        )
        with pytest.raises(ValueError):
            GridStrategy().run(huge, lambda pts: [])


class TestTune:
    def test_grid_front_is_non_trivial_and_best_beats_incumbent(self):
        tr = tune(WORKLOAD, space=SPACE, strategy=GridStrategy(),
                  objectives=("runtime", "dram", "area"))
        assert len(tr.evaluations) == len(SPACE)
        assert len(tr.front) >= 2
        assert tr.best.result.time_s <= tr.incumbent.result.time_s
        assert tr.speedup_over_incumbent() >= 1.0
        assert tr.incumbent.config == "CELLO"

    def test_random_with_full_budget_matches_grid(self):
        grid = tune(WORKLOAD, space=SPACE, strategy=GridStrategy(),
                    objectives=("runtime", "dram"))
        rand = tune(WORKLOAD, space=SPACE,
                    strategy=RandomStrategy(budget=len(SPACE) + 10, seed=3),
                    objectives=("runtime", "dram"))
        assert rand.best.point == grid.best.point
        assert {e.point for e in rand.evaluations} == {
            e.point for e in grid.evaluations}

    def test_random_budget_is_respected_and_includes_incumbent(self):
        tr = tune(WORKLOAD, space=SPACE, strategy=RandomStrategy(budget=6, seed=0),
                  objectives=("runtime",))
        assert len(tr.evaluations) <= 7  # budget (+ incumbent when unsampled)
        assert any(e.point == SPACE.default_point() for e in tr.evaluations)

    def test_halving_stays_within_budget_and_beats_incumbent(self):
        tr = tune(WORKLOAD, space=SPACE,
                  strategy=HalvingStrategy(budget=12, seed=1),
                  objectives=("runtime", "dram"))
        assert len(tr.evaluations) <= 13
        assert tr.best.result.time_s <= tr.incumbent.result.time_s

    def test_strategies_are_deterministic_given_seed(self):
        a = tune(WORKLOAD, space=SPACE, strategy=HalvingStrategy(budget=10, seed=7))
        b = tune(WORKLOAD, space=SPACE, strategy=HalvingStrategy(budget=10, seed=7))
        # The rerun replays from the warm cache (n_simulations drops to
        # zero); everything the search *decided* must be identical.
        assert a.evaluations == b.evaluations
        assert a.best == b.best
        assert b.n_simulations == 0

    def test_workload_object_and_name_agree(self):
        small = TuneSpace(chord_entries=(64,))
        by_name = tune(WORKLOAD, space=small, strategy=GridStrategy())
        by_obj = tune(resolve_workload(WORKLOAD), space=small,
                      strategy=GridStrategy())
        assert by_name.evaluations == by_obj.evaluations
        assert by_name.workload == by_obj.workload

    def test_unknown_objective_raises(self):
        with pytest.raises(KeyError):
            tune(WORKLOAD, space=SPACE, objectives=("latency",))


class TestBestFrontAgreement:
    def test_exact_tie_best_is_first_seen_and_on_front(self):
        """`best` and `ParetoFront` share the first-seen tie rule, so the
        report's 'best' row is always a frontier entry."""
        from repro.sim.results import SimResult
        from repro.tuner import TuneEval, TuneResult

        def ev(point, config):
            result = SimResult(
                config=config, workload="w", total_macs=1,
                dram_read_bytes=1, dram_write_bytes=0,
                compute_s=1.0, memory_s=1.0,
            )
            return TuneEval(point=point, config=config,
                            objectives={"runtime": 1.0}, result=result)

        first = ev(TunePoint(charge_swizzle=False), "CELLO[swz=0]")
        tied = ev(TunePoint(explicit_retire=False), "CELLO[retire=0]")
        tr = TuneResult(
            workload="w", strategy="grid", objectives=("runtime",),
            evaluations=(first, tied), incumbent=first, n_simulations=2,
        )
        assert tr.best == first  # not the lexicographically-smaller config
        assert [e.config for e in tr.front] == [first.config]


class TestTuneResultRoundTrip:
    def test_json_round_trip_identity(self):
        tr = tune(WORKLOAD, space=SPACE, strategy=RandomStrategy(budget=8, seed=2),
                  objectives=("runtime", "dram", "energy", "area"))
        again = TuneResult.from_dict(json.loads(json.dumps(tr.to_dict())))
        assert again == tr
        assert again.best == tr.best
        assert [e.config for e in again.front] == [e.config for e in tr.front]

    def test_schema_mismatch_rejected(self):
        tr = tune(WORKLOAD, space=SPACE, strategy=RandomStrategy(budget=4))
        data = tr.to_dict()
        data["v"] = 999
        with pytest.raises(ValueError):
            TuneResult.from_dict(data)


class TestTuneThroughStore:
    """The tentpole's persistence/orchestrator contract."""

    def test_warm_rerun_performs_zero_simulations(self, tmp_path):
        runner.set_store(ResultStore(tmp_path))
        cold = tune(WORKLOAD, space=SPACE, strategy=GridStrategy())
        assert cold.n_simulations == len(SPACE)
        # New process-life simulation: drop the in-memory tiers, keep disk.
        runner.clear_cache()
        runner.set_store(ResultStore(tmp_path))
        warm = tune(WORKLOAD, space=SPACE, strategy=GridStrategy())
        assert warm.n_simulations == 0
        assert warm.evaluations == cold.evaluations

    def test_parallel_warm_evaluations_byte_identical_to_serial_engines(
            self, tmp_path):
        """Differential: orchestrator-dispatched tuner evaluations equal
        direct serial ScheduleEngine/CacheEngine runs, byte for byte."""
        runner.set_store(ResultStore(tmp_path))
        tr = tune(WORKLOAD, space=SPACE, strategy=GridStrategy(), jobs=2)
        dag = resolve_workload(WORKLOAD).build()
        for e in tr.evaluations:
            direct = run_config(
                e.config, dag, e.point.accel_cfg(AcceleratorConfig()),
                workload_name=WORKLOAD,
            )
            assert direct == e.result
