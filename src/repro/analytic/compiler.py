"""Compile a canonical program into an evaluable analytic model.

Compilation folds the per-tensor formula terms into direction/gate sums
and pre-computes the no-pressure peaks for both retire modes, so one
compiled :class:`AnalyticModel` evaluates *any* engine-knob combination
(RIFF / retire / swizzle toggles, index-table sizes, bandwidth points)
in microseconds — the schedule and DAG construction that dominate a
simulated evaluation are paid exactly once.  This is the contract the
hybrid tuner and the ≥100× bench gate rely on.

A model is pinned to the accelerator parameters that shaped its
schedule (SRAM split, line size, RF size — see
:func:`repro.analytic.backend.schedule_cfg_key`); evaluating it against
a config that differs only in bandwidth, clock, or index-table entries
is exact, because DRAM traffic is independent of those knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..hw.config import AcceleratorConfig
from ..sim.engine import EngineOptions
from ..sim.perf import make_result
from ..sim.results import SimResult
from .canonical import CanonicalProgram
from .capacity import ChordTally, no_pressure_peaks, replay_chord
from .formulas import describe_formulas

#: Evaluation regimes (exactness classes the differential suite keys on).
STREAMING = "streaming"        # oracle baselines: capacity-independent
CLOSED_FORM = "closed-form"    # CHORD working set fits: pure formula sums
RECURRENCE = "recurrence"      # capacity pressure: prefix recurrence


@dataclass(frozen=True)
class AnalyticEvaluation:
    """One analytic prediction, with its audit trail."""

    result: SimResult
    regime: str
    #: Reuse class per tensor (from Algorithm 2 via canonicalisation).
    classes: Mapping[str, str]
    #: Per-tensor DRAM bytes {"read": r, "write": w}; only filled when
    #: the evaluation was asked for detail.
    per_tensor: Mapping[str, Dict[str, int]]
    #: CHORD attribution in ``ChordBuffer.per_tensor`` conventions
    #: (hit/miss/spill/writeback bytes), empty in the closed-form and
    #: streaming regimes unless detail was requested.
    chord_per_tensor: Mapping[str, Dict[str, int]]


class AnalyticModel:
    """Closed-form traffic/runtime/energy model of one (workload,
    schedule family, schedule-shaping config) triple."""

    def __init__(self, program: CanonicalProgram, cfg: AcceleratorConfig,
                 workload_name: str) -> None:
        self.program = program
        self.cfg = cfg
        self.workload_name = workload_name

        # Fold formula terms into the evaluator's sums.
        base_read = base_write = swizzle = np_read = np_write = 0
        for f in program.formulas:
            swz = sum(t.nbytes for t in f.terms if t.kind == "swizzle")
            swizzle += swz
            np_read += sum(t.nbytes for t in f.terms
                           if t.kind == "chord-cold-read")
            np_write += sum(t.nbytes for t in f.terms
                            if t.kind == "chord-drain")
            base_read += f.read_bytes(charge_swizzle=False, closed_form=False)
            base_write += f.write_bytes(charge_swizzle=False, closed_form=False)
        self._base_read = base_read
        self._base_write = base_write
        self._swizzle_bytes = swizzle
        self._np_chord_read = np_read
        self._np_chord_write = np_write

        # Capacity-model arrays (indexed by tensor id).
        self._totals = tuple(f.total_bytes for f in program.tensors)
        self._consumers = tuple(f.consumer_indices for f in program.tensors)
        self._is_output = tuple(f.is_program_output for f in program.tensors)
        self._classes = {f.name: f.traffic_class for f in program.tensors}
        self._names = tuple(f.name for f in program.tensors)

        # No-pressure peaks per retire mode: the closed-form precondition.
        self._peaks = {
            retire: no_pressure_peaks(
                program.chord_events, self._totals, self._consumers, retire)
            for retire in (True, False)
        }

    @property
    def classes(self) -> Dict[str, str]:
        return dict(self._classes)

    def fits(self, capacity: int, entries: int, explicit_retire: bool) -> bool:
        """True when the CHORD working set never pressures the buffer."""
        peak_bytes, peak_count = self._peaks[explicit_retire]
        return peak_bytes <= capacity and peak_count <= entries

    def evaluate(
        self,
        config_name: str,
        options: Optional[EngineOptions] = None,
        cfg: Optional[AcceleratorConfig] = None,
        detail: bool = False,
    ) -> AnalyticEvaluation:
        """Predict the :class:`SimResult` of one configuration point.

        ``cfg`` may differ from the compile config only in traffic-
        independent fields (bandwidth, clock, index-table entries);
        ``options`` carries the CELLO engine knobs and is ignored by
        oracle-family models.
        """
        cfg = cfg or self.cfg
        options = options or EngineOptions()
        program = self.program

        if program.kind == "oracle":
            read, write = self._base_read, self._base_write
            regime = STREAMING
            tally: Optional[ChordTally] = None
        else:
            read = self._base_read
            write = self._base_write
            if options.charge_swizzle:
                read += self._swizzle_bytes
                write += self._swizzle_bytes
            entries = options.chord_entries or cfg.chord_entries
            capacity = cfg.chord_data_bytes
            if self.fits(capacity, entries, options.explicit_retire):
                read += self._np_chord_read
                write += self._np_chord_write
                regime = CLOSED_FORM
                tally = None
                if detail:
                    tally = self._closed_form_tally()
            else:
                tally = replay_chord(
                    program.chord_events, self._totals, self._consumers,
                    self._is_output, capacity, entries,
                    options.use_riff, options.explicit_retire, detail=detail,
                )
                read += tally.dram_read_bytes
                write += tally.dram_write_bytes
                regime = RECURRENCE

        result = make_result(
            config=config_name,
            workload=self.workload_name,
            total_macs=program.total_macs,
            dram_read_bytes=read,
            dram_write_bytes=write,
            cfg=cfg,
            onchip_accesses=onchip_accesses_of(self, cfg),
        )
        per_tensor: Dict[str, Dict[str, int]] = {}
        chord_per: Dict[str, Dict[str, int]] = {}
        if detail:
            per_tensor = self._per_tensor(options, tally)
            if tally is not None:
                chord_per = {
                    self._names[tid]: dict(rec)
                    for tid, rec in tally.per_tensor.items()
                }
        return AnalyticEvaluation(
            result=result,
            regime=regime,
            classes=self.classes,
            per_tensor=per_tensor,
            chord_per_tensor=chord_per,
        )

    def _closed_form_tally(self) -> ChordTally:
        """Reconstruct per-tensor CHORD attribution in the fits regime by
        running the recurrence at the peak footprint (exactly equivalent,
        only needed when detail is requested)."""
        peak_bytes, peak_count = self._peaks[True]
        cap = max(peak_bytes, max(self._peaks[False][0], 1))
        ent = max(peak_count, self._peaks[False][1], 1)
        return replay_chord(
            self.program.chord_events, self._totals, self._consumers,
            self._is_output, cap, ent, True, True, detail=True,
        )

    def _per_tensor(self, options: EngineOptions,
                    tally: Optional[ChordTally]) -> Dict[str, Dict[str, int]]:
        closed = tally is None
        out: Dict[str, Dict[str, int]] = {}
        for f in self.program.formulas:
            read = f.read_bytes(charge_swizzle=options.charge_swizzle,
                                closed_form=closed)
            swz = sum(t.nbytes for t in f.terms if t.kind == "swizzle")
            write = f.write_bytes(charge_swizzle=options.charge_swizzle,
                                  closed_form=closed)
            if read or write or swz:
                out[f.tensor] = {"read": read, "write": write}
        if tally is not None:
            for tid, rec in tally.per_tensor.items():
                name = self._names[tid]
                slot = out.setdefault(name, {"read": 0, "write": 0})
                slot["read"] += rec["miss"]
                slot["write"] += rec["spill"] + rec["writeback"]
        return out

    def describe(self) -> str:
        peak_bytes, peak_count = self._peaks[True]
        lines = [
            f"AnalyticModel({self.workload_name}, {self.program.kind}): "
            f"{len(self.program.tensors)} tensors, "
            f"{len(self.program.chord_events)} CHORD events, "
            f"no-pressure peak {peak_bytes} B / {peak_count} tensors "
            "(with retirement)",
            describe_formulas(self.program.formulas),
        ]
        return "\n".join(lines)


def onchip_accesses_of(model: AnalyticModel,
                       cfg: AcceleratorConfig) -> Dict[str, int]:
    """The on-chip access counts every evaluation of ``model`` carries
    (point-wise and batch alike): buffet lines for the oracle family,
    CHORD / register-file / pipeline lines for SCORE schedules."""
    program = model.program
    if program.kind == "oracle":
        return {"buffet": program.operand_bytes // cfg.line_bytes}
    return {
        "chord": program.chord_access_bytes // cfg.line_bytes,
        "rf": program.rf_bytes // cfg.line_bytes,
        "pipeline": program.pipe_bytes // cfg.line_bytes,
    }
