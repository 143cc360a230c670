"""Differential tests for the vectorised batch analytic layer.

Three contracts, each pinned to its point-wise reference:

* :func:`repro.analytic.evaluate_batch` is element-wise identical to
  ``AnalyticModel.evaluate`` across random DAGs, knob grids, and all
  three evaluation regimes (hypothesis property suite);
* :func:`repro.tuner.pareto.nondominated_mask` and the vectorised
  :class:`ParetoFront` match the legacy per-insert dominance loop on
  random fronts (ties and duplicates included);
* the columnar grid tune path produces the same frontier, best point,
  and per-point evaluations as the point-wise strategy path, and every
  analytic evaluation either path keeps equals the scalar model's;
* programs too deep for the packed RIFF keys still price exactly,
  through the scalar fallback inside ``evaluate_batch``.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import (
    REGIME_NAMES,
    BatchKnobs,
    batch_objective_arrays,
    clear_model_cache,
    evaluate_batch,
    model_for,
    predict_workload_config,
)
from repro.analytic import batch as batch_mod
from repro.baselines import runner
from repro.baselines.configs import cello_variant_name
from repro.hw.config import KIB, MIB, AcceleratorConfig, default_config
from repro.sim.engine import EngineOptions
from repro.tuner.pareto import ParetoFront, dominates, nondominated_mask, objective_values
from repro.tuner.space import ColumnarGrid, TunePoint, TuneSpace
from repro.tuner.strategies import make_strategy
from repro.tuner.tuner import _BatchEvaluator, tune
from repro.workloads.registry import random_dag_workload, resolve_workload


def _pointwise(model, knobs, cfg):
    """Reference: one ``model.evaluate`` call per knob row."""
    reads, writes, regimes = [], [], []
    for i in range(len(knobs)):
        options = EngineOptions(
            use_riff=bool(knobs.use_riff[i]),
            explicit_retire=bool(knobs.explicit_retire[i]),
            charge_swizzle=bool(knobs.charge_swizzle[i]),
        )
        # capacity_bytes is cfg.chord_data_bytes; invert the split so the
        # scalar path sees the same capacity the batch row carries.  The
        # split floors, so probe neighbouring sram sizes for an exact hit.
        capacity = int(knobs.capacity_bytes[i])
        guess = int(round(capacity / (1.0 - cfg.pipeline_fraction)))
        point_cfg = None
        for sram in range(max(guess - 2, 1), guess + 3):
            candidate = replace(cfg, sram_bytes=sram,
                                chord_entries=int(knobs.chord_entries[i]))
            if candidate.chord_data_bytes == capacity:
                point_cfg = candidate
                break
        assert point_cfg is not None, capacity
        evaluation = model.evaluate(
            cello_variant_name(options), options, point_cfg)
        reads.append(evaluation.result.dram_read_bytes)
        writes.append(evaluation.result.dram_write_bytes)
        regimes.append(evaluation.regime)
    return reads, writes, regimes


def _knob_grid(model, cfg, extra_capacities=()):
    """A knob grid straddling the model's no-pressure peaks: every
    schedule-toggle combination at capacities/entries above and below the
    peak, so closed-form and recurrence rows coexist in one batch."""
    peak_bytes, peak_count = model._peaks[True]
    capacities = sorted({
        max(int(c), 1) for c in (
            peak_bytes // 3 + 1, max(peak_bytes - 1, 1), peak_bytes + 1,
            peak_bytes * 2 + 1, *extra_capacities)
    })
    entries = sorted({1, max(peak_count // 2, 1), peak_count + 1,
                      peak_count + 64})
    rows = [
        (riff, retire, swz, e, c)
        for riff in (True, False)
        for retire in (True, False)
        for swz in (True, False)
        for e in entries
        for c in capacities
    ]
    return BatchKnobs.from_columns(
        len(rows),
        use_riff=[r[0] for r in rows],
        explicit_retire=[r[1] for r in rows],
        charge_swizzle=[r[2] for r in rows],
        chord_entries=[r[3] for r in rows],
        capacity_bytes=[r[4] for r in rows],
    )


class TestBatchVsPointwise:
    """evaluate_batch == model.evaluate, element-wise."""

    @pytest.mark.parametrize("name", ["cg/fv1/N=1", "gmres/fv1/m=8/N=1",
                                      "mg/fv1/N=1"])
    def test_named_workloads_all_regimes(self, name):
        cfg = AcceleratorConfig()
        model = model_for(resolve_workload(name), "CELLO", cfg)
        knobs = _knob_grid(model, cfg)
        ev = evaluate_batch(model, knobs)
        reads, writes, regimes = _pointwise(model, knobs, cfg)
        assert ev.dram_read_bytes.tolist() == reads
        assert ev.dram_write_bytes.tolist() == writes
        assert ev.regime_names() == regimes
        # The grid was built to exercise both engine regimes at once.
        assert len(set(regimes)) > 1

    def test_streaming_families_are_constant_fills(self):
        cfg = AcceleratorConfig()
        workload = resolve_workload("cg/fv1/N=1")
        for family in ("Flexagon", "FLAT", "SET"):
            model = model_for(workload, family, cfg)
            knobs = BatchKnobs.from_columns(
                8, chord_entries=[1, 2, 4, 8, 16, 32, 64, 128],
                capacity_bytes=cfg.chord_data_bytes)
            ev = evaluate_batch(model, knobs)
            expected = model.evaluate(family, None, cfg).result
            assert set(ev.dram_read_bytes.tolist()) \
                == {expected.dram_read_bytes}
            assert set(ev.dram_write_bytes.tolist()) \
                == {expected.dram_write_bytes}
            assert set(ev.regime_names()) == {"streaming"}

    @given(seed=st.integers(0, 10_000), n_ops=st.integers(2, 12),
           fanout=st.integers(0, 4), skew=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_random_dag_differential(self, seed, n_ops, fanout, skew):
        workload = random_dag_workload(seed, n_ops=n_ops, fanout=fanout,
                                       skew=skew)
        cfg = AcceleratorConfig(sram_bytes=256 * KIB)
        model = model_for(workload, "CELLO", cfg)
        knobs = _knob_grid(model, cfg,
                           extra_capacities=(cfg.chord_data_bytes,))
        ev = evaluate_batch(model, knobs)
        reads, writes, regimes = _pointwise(model, knobs, cfg)
        assert ev.dram_read_bytes.tolist() == reads
        assert ev.dram_write_bytes.tolist() == writes
        assert ev.regime_names() == regimes

    def test_regime_names_match_compiler_strings(self):
        assert REGIME_NAMES == ("streaming", "closed-form", "recurrence")


class TestBatchObjectiveArrays:
    """batch_objective_arrays == objective_values, float for float."""

    def test_matches_pointwise_objectives(self):
        names = ("runtime", "dram", "energy", "area")
        cfg = AcceleratorConfig()
        workload = resolve_workload("gmres/fv1/m=8/N=1")
        model = model_for(workload, "CELLO", cfg)
        knobs = _knob_grid(model, cfg)
        ev = evaluate_batch(model, knobs)
        # Objective arrays assume one SRAM/line geometry per call; pin
        # capacity to the cfg the comparison evaluates at.
        mask = knobs.capacity_bytes == cfg.chord_data_bytes
        idx = np.flatnonzero(mask)
        if not idx.size:
            knobs = BatchKnobs.from_columns(
                4, chord_entries=[1, 8, 64, 256],
                capacity_bytes=cfg.chord_data_bytes)
            ev = evaluate_batch(model, knobs)
            idx = np.arange(4)
        arrs = batch_objective_arrays(
            names, model,
            type(ev)(dram_read_bytes=ev.dram_read_bytes[idx],
                     dram_write_bytes=ev.dram_write_bytes[idx],
                     regime=ev.regime[idx]),
            cfg, chord_entries=knobs.chord_entries[idx])
        for j, i in enumerate(idx):
            i = int(i)
            options = EngineOptions(
                use_riff=bool(knobs.use_riff[i]),
                explicit_retire=bool(knobs.explicit_retire[i]),
                charge_swizzle=bool(knobs.charge_swizzle[i]))
            point = TunePoint(
                use_riff=options.use_riff,
                explicit_retire=options.explicit_retire,
                charge_swizzle=options.charge_swizzle,
                chord_entries=int(knobs.chord_entries[i]),
                sram_bytes=cfg.sram_bytes, line_bytes=cfg.line_bytes)
            point_cfg = point.accel_cfg(cfg)
            result = model.evaluate(
                cello_variant_name(options), options, point_cfg).result
            expected = objective_values(names, result, point_cfg, point)
            for name in names:
                assert float(arrs[name][j]) == expected[name], (name, i)

    def test_area_requires_entries(self):
        cfg = AcceleratorConfig()
        model = model_for(resolve_workload("cg/fv1/N=1"), "CELLO", cfg)
        knobs = BatchKnobs.from_columns(
            2, capacity_bytes=cfg.chord_data_bytes)
        ev = evaluate_batch(model, knobs)
        with pytest.raises(ValueError, match="chord_entries"):
            batch_objective_arrays(("area",), model, ev, cfg)
        with pytest.raises(KeyError, match="unknown objective"):
            batch_objective_arrays(("speed",), model, ev, cfg)


def _legacy_front(vectors):
    """The pre-vectorisation per-insert loop (reference semantics)."""
    entries = []
    for i, v in enumerate(vectors):
        v = tuple(v)
        if any(dominates(e, v) or e == v for _, e in entries):
            continue
        entries = [(j, e) for j, e in entries if not dominates(v, e)]
        entries.append((i, v))
    return entries


class TestVectorisedPareto:
    """nondominated_mask / ParetoFront.add == the legacy insert loop."""

    @given(seed=st.integers(0, 10_000), n=st.integers(0, 120),
           k=st.integers(1, 4), levels=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_mask_matches_legacy_loop(self, seed, n, k, levels):
        rng = random.Random(seed)
        # Coarse levels force plenty of exact ties and duplicate vectors.
        vectors = [tuple(float(rng.randrange(levels)) for _ in range(k))
                   for _ in range(n)]
        mask = nondominated_mask(np.asarray(vectors).reshape(n, k))
        survivors = {i for i, _ in _legacy_front(vectors)}
        assert {int(i) for i in np.flatnonzero(mask)} == survivors

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_front_add_matches_legacy_loop(self, seed, n):
        rng = random.Random(seed)
        names = ("runtime", "dram")
        front = ParetoFront(names)
        vectors = []
        for i in range(n):
            v = (float(rng.randrange(5)), float(rng.randrange(5)))
            vectors.append(v)
            front.add(TunePoint(chord_entries=i + 1), f"p{i}",
                      dict(zip(names, v)))
        legacy = sorted(e for _, e in _legacy_front(vectors))
        assert sorted(e.vector for e in front) == legacy

    def test_mask_rejects_non_matrix_input(self):
        with pytest.raises(ValueError, match="2-D"):
            nondominated_mask(np.zeros(3))
        assert nondominated_mask(np.zeros((0, 2))).tolist() == []


class TestColumnarGrid:
    def _space(self):
        return TuneSpace(chord_entries=(64, 8, 32), sram_bytes=(4 * MIB, MIB),
                         line_bytes=(16, 64), cache_policies=("LRU", "SRRIP"))

    def test_row_order_matches_points(self):
        space = self._space()
        pts = space.points()
        # The enumerated space, and the same points packed as a batch.
        for grid in (space.columnar(), ColumnarGrid.of(pts)):
            assert len(grid) == len(pts) == len(space)
            assert [grid.point_at(i) for i in range(len(grid))] == list(pts)

    def test_cello_index_roundtrip_and_bounds(self):
        space = self._space()
        grid = space.columnar()
        for i in range(grid.n_cello):
            assert grid.cello_index_of(grid.point_at(i)) == i
        assert grid.cello_index_of(TunePoint(chord_entries=999)) is None
        assert grid.cello_index_of(
            TunePoint(cache_policy="LRU")) is None
        with pytest.raises(IndexError):
            grid.point_at(len(grid))

    def test_contains_matches_enumeration(self):
        space = self._space()
        members = set(space.points())
        for p in list(members):
            assert p in space
        assert TunePoint(chord_entries=999) not in space
        assert TunePoint(cache_policy="BRRIP") not in space
        # A cache point with a non-default RIFF table is not on the grid
        # even though the policy/SRAM/line axes all match.
        odd = TunePoint(cache_policy="LRU", chord_entries=8)
        assert odd not in members and odd not in space
        assert "CELLO" not in space  # non-TunePoint

    def test_sample_matches_legacy_draws(self):
        space = self._space()
        pts = space.points()
        for seed in range(5):
            legacy = tuple(random.Random(seed).sample(pts, 7))
            assert space.sample(random.Random(seed), 7) == legacy
        assert space.sample(random.Random(0), len(pts) + 5) == pts


def _scalar_eval(workload, names, point, base_cfg):
    """Test-local scalar oracle: one ``predict_workload_config`` (the
    point-wise ``model.evaluate``) and one ``objective_values`` call."""
    cfg = point.accel_cfg(base_cfg)
    result = predict_workload_config(workload, point.config_name(), cfg).result
    return objective_values(names, result, cfg, point), result


class TestColumnarTune:
    WORKLOAD = "gmres/fv1/m=8/N=1"
    OBJECTIVES = ("runtime", "dram", "area")

    def _space(self):
        return TuneSpace(chord_entries=(64, 8, 16, 32),
                         sram_bytes=(4 * MIB, MIB), line_bytes=(16, 32),
                         cache_policies=("LRU",))

    @pytest.mark.parametrize("fidelity", ["analytic", "hybrid"])
    def test_columnar_front_matches_pointwise(self, fidelity):
        space = self._space()
        runner.clear_cache()
        fast = tune(self.WORKLOAD, space=space,
                    strategy=make_strategy("grid"),
                    objectives=self.OBJECTIVES, fidelity=fidelity)
        runner.clear_cache()
        # A random budget covering the space proposes every point in
        # enumeration order, in one batch through the point-wise
        # _BatchEvaluator pass.
        slow = tune(self.WORKLOAD, space=space,
                    strategy=make_strategy("random", budget=len(space)),
                    objectives=self.OBJECTIVES, fidelity=fidelity)
        runner.clear_cache()
        assert [(e.point, e.vector) for e in fast.front] \
            == [(e.point, e.vector) for e in slow.front]
        assert fast.best.point == slow.best.point
        assert fast.best.objectives == slow.best.objectives
        assert fast.incumbent.result == slow.incumbent.result
        # The columnar prune keeps the final frontier only, so it never
        # simulates more than the insertion-order point-wise pass.
        assert fast.n_simulations <= slow.n_simulations
        by_point = {e.point: e for e in slow.evaluations}
        for e in fast.evaluations:
            o = by_point[e.point]
            assert e.objectives == o.objectives and e.result == o.result
        workload = resolve_workload(self.WORKLOAD)
        base = default_config(None)
        for e in fast.evaluations + slow.evaluations:
            if not e.point.is_cello:
                assert e.fidelity == "exact"     # no model: simulated
            elif e.fidelity == "analytic":
                assert (e.objectives, e.result) == _scalar_eval(
                    workload, self.OBJECTIVES, e.point, base), e.point

    def test_batch_routed_analytic_pass_matches_predict(self):
        workload = resolve_workload(self.WORKLOAD)
        base = default_config(None)
        names = ("runtime", "dram", "energy", "area")
        evaluator = _BatchEvaluator(workload, names, base, jobs=1,
                                    fidelity="analytic")
        # The first 12 rows span every (SRAM, line) geometry of the space.
        pts = [p for p in self._space().points() if p.is_cello][:12]
        assert len({(p.sram_bytes, p.line_bytes) for p in pts}) == 4
        lru = TunePoint(cache_policy="LRU")
        # Cache-policy points have no analytic model: left for the
        # simulator, never priced.
        assert evaluator._analytic_pass(pts + [lru]) == [lru]
        assert lru not in evaluator.cache
        assert evaluator.n_analytic == len(pts)
        for p in pts:
            got = evaluator.cache[p]
            objectives, result = _scalar_eval(workload, names, p, base)
            assert got.objectives == objectives, p
            assert got.result == result, p
            assert got.fidelity == "analytic"

    def test_hundred_thousand_point_hybrid_front_matches_analytic(self):
        """The acceptance-scale run: a 10^5-point hybrid grid tune prices
        columnar and yields the same frontier as the analytic fidelity on
        the same space (predictions are byte-exact, so re-simulating the
        survivors cannot move the front)."""
        space = TuneSpace(chord_entries=tuple(range(1, 12_501)),
                          sram_bytes=(4 * MIB,), line_bytes=(16,))
        assert len(space) == 100_000
        runner.clear_cache()
        hybrid = tune(self.WORKLOAD, space=space,
                      strategy=make_strategy("grid"),
                      objectives=("runtime", "dram", "area"),
                      fidelity="hybrid")
        runner.clear_cache()
        analytic = tune(self.WORKLOAD, space=space,
                        strategy=make_strategy("grid"),
                        objectives=("runtime", "dram", "area"),
                        fidelity="analytic")
        runner.clear_cache()
        assert [(e.point, e.vector) for e in hybrid.front] \
            == [(e.point, e.vector) for e in analytic.front]
        assert hybrid.n_analytic > 90_000
        assert hybrid.analytic_max_rel_error in (None, 0.0)
        # Only the analytic frontier plus the incumbent get simulated
        # (the incumbent is always priced exactly, even when its vector
        # ties a frontier entry), never the other ~100k points.
        assert hybrid.n_simulations <= len(hybrid.front) + 1


class TestPackedKeyFallback:
    """Programs too deep for the packed RIFF priority keys are priced
    inside evaluate_batch by the scalar recurrence; no caller sees the
    limit.  Zero frequency bits make every real program too deep."""

    def test_rows_match_pointwise_in_recurrence_regime(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "_FREQ_BITS", 0)
        clear_model_cache()
        try:
            cfg = AcceleratorConfig()
            model = model_for(resolve_workload("gmres/fv1/m=8/N=1"),
                              "CELLO", cfg)
            with pytest.raises(batch_mod.BatchUnsupported):
                batch_mod.batch_program_for(model)
            knobs = _knob_grid(model, cfg)
            ev = evaluate_batch(model, knobs)
            reads, writes, regimes = _pointwise(model, knobs, cfg)
        finally:
            clear_model_cache()
        assert "recurrence" in regimes
        assert ev.dram_read_bytes.tolist() == reads
        assert ev.dram_write_bytes.tolist() == writes
        assert ev.regime_names() == regimes

    def test_hybrid_grid_tune_returns_unpatched_front(self, monkeypatch):
        space = TuneSpace(chord_entries=(64, 8, 16, 32),
                          sram_bytes=(4 * MIB, MIB))

        def front():
            runner.clear_cache()
            clear_model_cache()
            try:
                result = tune("gmres/fv1/m=8/N=1", space=space,
                              strategy=make_strategy("grid"),
                              objectives=("runtime", "dram", "area"),
                              fidelity="hybrid")
            finally:
                runner.clear_cache()
                clear_model_cache()
            return [(e.point, e.vector) for e in result.front]

        expected = front()
        monkeypatch.setattr(batch_mod, "_FREQ_BITS", 0)
        assert front() == expected

