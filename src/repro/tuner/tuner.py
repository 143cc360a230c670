"""The co-design autotuner: search (schedule × CHORD/hardware) per workload.

``tune()`` is the paper's Sec. VI-B made operational: instead of only
*counting* the design space CHORD leaves open, it searches that space and
returns the Pareto frontier over (runtime, DRAM traffic, energy, buffer
area) next to the paper's fixed CELLO point.

Evaluation plumbing is the PR 1 orchestrator end to end: every batch a
strategy proposes becomes sweep points (workload name × config name ×
:class:`AcceleratorConfig`), is pre-warmed across worker processes when
``jobs`` allows, and is then replayed serially from the warm cache — so
tuner results are byte-identical to direct serial engine runs, repeat
invocations against a persistent :class:`ResultStore` perform **zero**
re-simulations, and a tuned point is indistinguishable from any other
sweep point on disk.

Three fidelities select how a batch is priced (``docs/analytic.md``):

* ``exact`` — every point simulates (the default, and the behaviour of
  every earlier revision);
* ``analytic`` — every analytically supported point is priced by the
  closed-form model (:mod:`repro.analytic`); unsupported cache-policy
  points, and the incumbent, still simulate;
* ``hybrid`` — the batch is *ranked* analytically, and only the
  analytically non-dominated survivors (plus unsupported points and the
  incumbent) are re-priced by the exact simulator.  Pruned points keep
  their analytic evaluation (``TuneEval.fidelity == "analytic"``), and
  the observed |analytic − exact| relative DRAM error over re-simulated
  survivors is reported on the :class:`TuneResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines import runner
from ..hw.config import AcceleratorConfig, default_config
from ..orchestrator.spec import SweepPoint
from ..sim.perf import make_result
from ..sim.results import SimResult
from ..workloads.registry import Workload, resolve_workload
from .pareto import (
    DEFAULT_OBJECTIVES,
    ParetoFront,
    objective_values,
    validate_objectives,
)
from .space import ColumnarGrid, TunePoint, TuneSpace
from .strategies import RandomStrategy, SearchStrategy

#: Schema tag for serialised tune results (independent of the result
#: store's traffic schema; bump when the encoding below changes shape).
#: v2 added the fidelity fields; v1 payloads still load (exact fidelity).
TUNE_SCHEMA_VERSION = 2

#: Accepted values of ``tune(..., fidelity=...)``.
FIDELITIES = ("exact", "analytic", "hybrid")


@dataclass(frozen=True)
class TuneEval:
    """One evaluated design point: knobs, canonical config, objectives,
    and the underlying simulation result."""

    point: TunePoint
    config: str
    objectives: Mapping[str, float]
    result: SimResult
    #: "exact" when the result came from the simulator, "analytic" when
    #: it is a closed-form prediction (hybrid-pruned or analytic runs).
    fidelity: str = "exact"

    def to_dict(self) -> Dict[str, object]:
        return {
            "point": self.point.knobs(),
            "config": self.config,
            "objectives": dict(self.objectives),
            "result": self.result.to_dict(),
            "fidelity": self.fidelity,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneEval":
        return cls(
            point=TunePoint.from_knobs(dict(data["point"])),  # type: ignore[arg-type]
            config=str(data["config"]),
            objectives={str(k): float(v)
                        for k, v in dict(data["objectives"]).items()},  # type: ignore[arg-type]
            result=SimResult.from_dict(data["result"]),  # type: ignore[arg-type]
            fidelity=str(data.get("fidelity", "exact")),
        )


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one autotuning run (JSON round-trippable)."""

    workload: str
    strategy: str
    objectives: Tuple[str, ...]
    evaluations: Tuple[TuneEval, ...]
    incumbent: TuneEval
    n_simulations: int
    #: Fidelity the run was asked for ("exact" / "analytic" / "hybrid").
    fidelity: str = "exact"
    #: Evaluations priced by the analytic model instead of the simulator.
    n_analytic: int = 0
    #: max |analytic − exact| / exact over DRAM bytes of every point that
    #: was both predicted and re-simulated; None when nothing was both.
    analytic_max_rel_error: Optional[float] = None

    @property
    def best(self) -> TuneEval:
        """Best evaluation by the objective vector (lexicographic,
        primary first); exact ties keep the first-seen evaluation — the
        same tie rule :class:`ParetoFront` uses, so ``best`` is always a
        frontier entry."""
        best_e: Optional[TuneEval] = None
        best_v: Optional[Tuple[float, ...]] = None
        for e in self.evaluations:
            v = tuple(e.objectives[n] for n in self.objectives)
            if best_v is None or v < best_v:
                best_e, best_v = e, v
        assert best_e is not None
        return best_e

    @property
    def front(self) -> ParetoFront:
        """Pareto frontier of every evaluation (dominance-pruned)."""
        front = ParetoFront(self.objectives)
        for e in self.evaluations:
            front.add(e.point, e.config, e.objectives)
        return front

    def speedup_over_incumbent(self) -> float:
        """Fixed-CELLO runtime / searched-best runtime (≥ 1 by
        construction — the incumbent is always evaluated)."""
        best_t = min(e.result.time_s for e in self.evaluations)
        if best_t <= 0:
            return float("inf")
        return self.incumbent.result.time_s / best_t

    def to_dict(self) -> Dict[str, object]:
        return {
            "v": TUNE_SCHEMA_VERSION,
            "workload": self.workload,
            "strategy": self.strategy,
            "objectives": list(self.objectives),
            "evaluations": [e.to_dict() for e in self.evaluations],
            "incumbent": self.incumbent.to_dict(),
            "n_simulations": self.n_simulations,
            "fidelity": self.fidelity,
            "n_analytic": self.n_analytic,
            "analytic_max_rel_error": self.analytic_max_rel_error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneResult":
        if data.get("v") not in (1, TUNE_SCHEMA_VERSION):
            raise ValueError(
                f"tune-result schema {data.get('v')!r} != {TUNE_SCHEMA_VERSION}"
            )
        err = data.get("analytic_max_rel_error")
        return cls(
            workload=str(data["workload"]),
            strategy=str(data["strategy"]),
            objectives=tuple(str(n) for n in data["objectives"]),  # type: ignore[union-attr]
            evaluations=tuple(TuneEval.from_dict(e)
                              for e in data["evaluations"]),  # type: ignore[union-attr]
            incumbent=TuneEval.from_dict(data["incumbent"]),  # type: ignore[arg-type]
            n_simulations=int(data["n_simulations"]),  # type: ignore[arg-type]
            fidelity=str(data.get("fidelity", "exact")),
            n_analytic=int(data.get("n_analytic", 0)),  # type: ignore[arg-type]
            analytic_max_rel_error=None if err is None else float(err),  # type: ignore[arg-type]
        )


class _BatchEvaluator:
    """Memoising batch evaluator dispatching through the orchestrator.

    Each batch is pre-warmed ``jobs``-wide (uncached points simulate in
    parallel worker processes; cached points replay from the runner's
    tiers / the persistent store), then assembled serially — the same
    two-phase discipline every experiment module uses, so results are
    byte-identical to plain serial engine runs.

    Under ``hybrid`` fidelity a batch is first priced by the analytic
    model; only the analytically non-dominated survivors (plus points
    the model cannot price, and the incumbent) reach the simulator.
    Under ``analytic`` fidelity supported points keep their predictions
    outright.  In both modes every analytic/exact DRAM pair observed is
    folded into ``analytic_max_rel_error``.
    """

    def __init__(self, workload: Workload, objectives: Tuple[str, ...],
                 base_cfg: AcceleratorConfig, jobs: Optional[int],
                 fidelity: str = "exact") -> None:
        self.workload = workload
        self.objectives = objectives
        self.base_cfg = base_cfg
        self.jobs = jobs
        self.fidelity = fidelity
        self.cache: Dict[TunePoint, TuneEval] = {}
        #: Points that must always be simulated (the incumbent: reported
        #: speedups stay grounded in the exact simulator).
        self.always_exact: set = set()
        self.n_analytic = 0
        self.analytic_max_rel_error: Optional[float] = None

    def _note_error(self, predicted: SimResult, exact: SimResult) -> None:
        err = (abs(predicted.dram_bytes - exact.dram_bytes)
               / max(exact.dram_bytes, 1))
        if self.analytic_max_rel_error is None or err > self.analytic_max_rel_error:
            self.analytic_max_rel_error = err

    def _analytic_pass(self, todo: List[TunePoint]) -> List[TunePoint]:
        """Price ``todo`` analytically; return the points that still need
        the simulator (their predictions are kept for error tracking).
        Cache-policy points (no model) and the incumbent always do."""
        priced = [p for p in dict.fromkeys(todo)
                  if p.is_cello and p not in self.always_exact]
        _, analytic_eval = _price_cello(self.workload, self.objectives,
                                        self.base_cfg, ColumnarGrid.of(priced))
        predicted = {p: analytic_eval(row) for row, p in enumerate(priced)}
        survivors = [p for p in todo if p not in predicted]
        if self.fidelity == "analytic":
            for p, e in predicted.items():
                self.cache[p] = e
                self.n_analytic += 1
            self._predictions = {}
            return survivors
        # Hybrid: simulate only the analytically non-dominated subset.
        front = ParetoFront(self.objectives)
        keep: List[TunePoint] = []
        for p, e in predicted.items():
            if front.add(p, e.config, e.objectives):
                keep.append(p)
        kept = set(keep)
        for p, e in predicted.items():
            if p in kept:
                survivors.append(p)
            else:
                self.cache[p] = e
                self.n_analytic += 1
        self._predictions = {p: predicted[p] for p in kept}
        return survivors

    def __call__(self, points: Sequence[TunePoint]) -> List[TuneEval]:
        todo = [p for p in points if p not in self.cache]
        self._predictions: Dict[TunePoint, TuneEval] = {}
        if todo and self.fidelity != "exact":
            todo = self._analytic_pass(todo)
        if todo:
            if self.jobs is None or self.jobs > 1:
                from ..orchestrator.parallel import prewarm

                prewarm(
                    [
                        SweepPoint(self.workload.name, p.config_name(),
                                   p.accel_cfg(self.base_cfg))
                        for p in todo
                    ],
                    jobs=self.jobs,
                )
            for p in todo:
                cfg = p.accel_cfg(self.base_cfg)
                result = runner.run_workload_config(
                    self.workload, p.config_name(), cfg
                )
                prediction = self._predictions.get(p)
                if prediction is not None:
                    self._note_error(prediction.result, result)
                self.cache[p] = TuneEval(
                    point=p,
                    config=p.config_name(),
                    objectives=objective_values(self.objectives, result, cfg, p),
                    result=result,
                )
        return [self.cache[p] for p in points]


def _price_cello(
    workload: Workload,
    names: Tuple[str, ...],
    base_cfg: AcceleratorConfig,
    grid: ColumnarGrid,
) -> Tuple[np.ndarray, Callable[[int], TuneEval]]:
    """The tuner's one analytic pricing core.

    Prices every CELLO row of ``grid``: rows are grouped by (SRAM, line)
    geometry, and each group makes one :func:`model_for`, one
    :func:`evaluate_batch` and one :func:`batch_objective_arrays` call.
    Returns the ``(rows, objectives)`` matrix, columns in ``names``
    order, and a function turning a row into its analytic
    :class:`TuneEval` — only the rows a caller keeps ever become
    objects.
    """
    # Looked up through their modules at call time, so a wrapper put on
    # either module attribute (perfbench's layer timers) sees every call.
    from .. import analytic
    from ..analytic import batch

    geom = np.stack([grid.sram_bytes, grid.line_bytes], axis=1)
    uniq, group_of = np.unique(geom, axis=0, return_inverse=True)
    obj_matrix = np.empty((grid.n_cello, len(names)), dtype=np.float64)
    pos_in_group = np.empty(grid.n_cello, dtype=np.int64)
    groups: List[tuple] = []
    for g in range(uniq.shape[0]):
        rows = np.flatnonzero(group_of == g)
        pos_in_group[rows] = np.arange(rows.size)
        first = grid.point_at(int(rows[0]))
        cfg = first.accel_cfg(base_cfg)
        model = analytic.model_for(workload, first.config_name(), cfg)
        entries = grid.chord_entries[rows]
        ev = batch.evaluate_batch(model, batch.BatchKnobs.from_columns(
            rows.size,
            use_riff=grid.use_riff[rows],
            explicit_retire=grid.explicit_retire[rows],
            charge_swizzle=grid.charge_swizzle[rows],
            chord_entries=entries,
            capacity_bytes=cfg.chord_data_bytes,
        ))
        arrs = batch.batch_objective_arrays(names, model, ev, cfg,
                                            chord_entries=entries)
        for j, name in enumerate(names):
            obj_matrix[rows, j] = arrs[name]
        groups.append((model, cfg, ev, analytic.onchip_accesses_of(model, cfg)))

    def analytic_eval(row: int) -> TuneEval:
        model, cfg, ev, onchip = groups[int(group_of[row])]
        i = int(pos_in_group[row])
        p = grid.point_at(row)
        result = make_result(
            config=p.config_name(),
            workload=workload.name,
            total_macs=model.program.total_macs,
            dram_read_bytes=int(ev.dram_read_bytes[i]),
            dram_write_bytes=int(ev.dram_write_bytes[i]),
            cfg=cfg,
            onchip_accesses=onchip,
        )
        return TuneEval(
            point=p,
            config=p.config_name(),
            objectives={name: float(obj_matrix[row, j])
                        for j, name in enumerate(names)},
            result=result,
            fidelity="analytic",
        )

    return obj_matrix, analytic_eval


def _columnar_grid_tune(
    workload: Workload,
    space: TuneSpace,
    strategy: SearchStrategy,
    names: Tuple[str, ...],
    base_cfg: AcceleratorConfig,
    jobs: Optional[int],
    fidelity: str,
) -> TuneResult:
    """Exhaustive grid search at analytic/hybrid fidelity without ever
    materialising the grid.

    Every CELLO row of :meth:`TuneSpace.columnar` is priced by
    :func:`_price_cello`, pruned with one vectorised dominance pass, and
    only the survivors — plus the incumbent and the cache-policy block,
    which always simulate — become :class:`TunePoint` objects.  Row
    order matches the point-wise enumeration, so the first-seen tie rule
    (and therefore the final frontier and ``best``) is identical to
    pricing every point individually; dominated rows can never re-enter
    a frontier, so dropping them from ``evaluations`` leaves the front
    unchanged.

    Under hybrid fidelity the vectorised prune keeps exactly the *final*
    analytic frontier — a subset of the insertion-order survivors the
    incremental point-wise pass re-simulates (that pass also keeps points
    that joined the running front and were evicted later).  Fewer exact
    simulations, identical frontier.
    """
    from .pareto import nondominated_mask

    grid = space.columnar()
    incumbent_pt = space.default_point()
    inc_row = grid.cello_index_of(incumbent_pt)
    obj_matrix, analytic_eval = _price_cello(workload, names, base_cfg, grid)

    # Vectorised dominance pass over the CELLO block, in enumeration
    # order (minus the incumbent, which is pinned to exact fidelity and
    # never enters the analytic prune — same as the point-wise pass).
    cello_rows = np.arange(grid.n_cello)
    if inc_row is not None:
        cello_rows = cello_rows[cello_rows != inc_row]
    survivor_rows = [int(r) for r in
                     cello_rows[nondominated_mask(obj_matrix[cello_rows])]]

    evaluator = _BatchEvaluator(workload, names, base_cfg, jobs, "exact")
    sims_before = runner.simulation_count()
    cache_pts = list(grid.cache_points)
    if fidelity == "hybrid":
        predictions = [analytic_eval(r) for r in survivor_rows]
        survivor_pts = [e.point for e in predictions]
        exact = evaluator([incumbent_pt] + survivor_pts + cache_pts)
        incumbent = exact[0]
        cello_evals = exact[1:1 + len(survivor_pts)]
        cache_evals = exact[1 + len(survivor_pts):]
        for pred, got in zip(predictions, cello_evals):
            evaluator._note_error(pred.result, got.result)
        n_analytic = len(cello_rows) - len(survivor_rows)
    else:  # analytic: survivors keep their predictions outright
        exact = evaluator([incumbent_pt] + cache_pts)
        incumbent = exact[0]
        cache_evals = exact[1:]
        cello_evals = [analytic_eval(r) for r in survivor_rows]
        n_analytic = int(cello_rows.size)
    return TuneResult(
        workload=workload.name,
        strategy=strategy.name,
        objectives=names,
        evaluations=tuple([incumbent] + list(cello_evals)
                          + list(cache_evals)),
        incumbent=incumbent,
        n_simulations=runner.simulation_count() - sims_before,
        fidelity=fidelity,
        n_analytic=n_analytic,
        analytic_max_rel_error=evaluator.analytic_max_rel_error,
    )


def tune(
    workload: Union[str, Workload],
    space: Optional[TuneSpace] = None,
    strategy: Optional[SearchStrategy] = None,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    base_cfg: Optional[AcceleratorConfig] = None,
    jobs: Optional[int] = 1,
    fidelity: str = "exact",
) -> TuneResult:
    """Search the co-design space of ``workload``.

    Parameters
    ----------
    workload:
        A registry name (resolved, parallel-capable) or a
        :class:`Workload` object (simulated in-process).
    space:
        The joint knob space; default: the three SCORE ablation axes at
        the paper's fixed hardware point.
    strategy:
        A :class:`SearchStrategy`; default: seeded random sampling with
        a 32-point budget.
    objectives:
        Ordered objective names from
        :data:`repro.tuner.pareto.OBJECTIVES` (first = primary).
    base_cfg:
        Hardware baseline the points perturb (bandwidth, MACs, …).
    jobs:
        Worker processes per batch (``None`` = one per core, 1 = serial).
    fidelity:
        ``"exact"`` simulates every point; ``"analytic"`` prices
        supported points by the closed-form model; ``"hybrid"`` ranks
        each batch analytically and simulates only the non-dominated
        survivors.  The incumbent always simulates.
    """
    if isinstance(workload, str):
        workload = resolve_workload(workload)
    space = space if space is not None else TuneSpace()
    strategy = strategy if strategy is not None else RandomStrategy()
    names = validate_objectives(objectives)
    base_cfg = default_config(base_cfg)
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; known: {', '.join(FIDELITIES)}"
        )

    if strategy.name == "grid" and fidelity != "exact":
        # Exhaustive analytic/hybrid grids take the columnar fast path:
        # no per-point objects, no per-insert Pareto loop, no
        # MAX_GRID_POINTS cap — 10^5+-point spaces price in seconds.
        return _columnar_grid_tune(
            workload, space, strategy, names, base_cfg, jobs, fidelity)

    evaluator = _BatchEvaluator(workload, names, base_cfg, jobs, fidelity)
    evaluator.always_exact.add(space.default_point())
    sims_before = runner.simulation_count()
    evals = strategy.run(space, evaluator)
    incumbent = evaluator([space.default_point()])[0]

    # Deterministic evaluation order: first-seen, one entry per point.
    ordered: List[TuneEval] = []
    seen: Dict[TunePoint, None] = {}
    for e in evals + [incumbent]:
        if e.point not in seen:
            seen[e.point] = None
            ordered.append(e)
    return TuneResult(
        workload=workload.name,
        strategy=strategy.name,
        objectives=names,
        evaluations=tuple(ordered),
        incumbent=incumbent,
        n_simulations=runner.simulation_count() - sims_before,
        fidelity=fidelity,
        n_analytic=evaluator.n_analytic,
        analytic_max_rel_error=evaluator.analytic_max_rel_error,
    )
