"""Analytic traffic fast path: closed-form per-tensor DRAM/runtime/energy
prediction, pinned to the simulator by the differential test harness.

The pipeline: canonicalise (DAG + SCORE schedule) into per-tensor
traffic formulas plus a compact CHORD event stream
(:mod:`~repro.analytic.canonical`), compile those into an evaluable
model with pre-folded sums and no-pressure peaks
(:mod:`~repro.analytic.compiler`), and evaluate any engine-knob /
bandwidth / index-table point without generating a trace — closed form
when the working set fits, the piecewise capacity recurrence
(:mod:`~repro.analytic.capacity`) when it does not.  The backend
(:mod:`~repro.analytic.backend`) dispatches Table IV config names and
caches compiled models; cache-policy baselines raise
:class:`AnalyticUnsupported` and fall back to the exact simulator.

Consumers: ``repro tune --fidelity analytic|hybrid``, the service's
``predict`` op, ``analysis/fidelity_report.py``, and
``tests/test_analytic_differential.py`` (the harness that keeps the
model honest — exact for sequential/streaming classes, ≤2% relative
error bound asserted elsewhere).  Derivation notes: ``docs/analytic.md``.
"""

from .backend import (
    AnalyticUnsupported,
    clear_model_cache,
    engine_options_for,
    family_of,
    model_cache_size,
    model_for,
    predict_config,
    predict_workload_config,
    schedule_cfg_key,
    supports_config,
)
from .batch import (
    REGIME_CLOSED_FORM,
    REGIME_NAMES,
    REGIME_RECURRENCE,
    REGIME_STREAMING,
    BatchEvaluation,
    BatchKnobs,
    BatchUnsupported,
    batch_objective_arrays,
    evaluate_batch,
    replay_chord_batch,
)
from .canonical import CanonicalProgram, TensorFacts, canonicalize, canonicalize_oracle
from .capacity import ChordTally, no_pressure_peaks, replay_chord
from .compiler import (
    CLOSED_FORM,
    RECURRENCE,
    STREAMING,
    AnalyticEvaluation,
    AnalyticModel,
    onchip_accesses_of,
)
from .formulas import TensorFormula, Term, describe_formulas

__all__ = [
    "AnalyticEvaluation",
    "AnalyticModel",
    "AnalyticUnsupported",
    "BatchEvaluation",
    "BatchKnobs",
    "BatchUnsupported",
    "CanonicalProgram",
    "ChordTally",
    "CLOSED_FORM",
    "RECURRENCE",
    "REGIME_CLOSED_FORM",
    "REGIME_NAMES",
    "REGIME_RECURRENCE",
    "REGIME_STREAMING",
    "STREAMING",
    "TensorFacts",
    "TensorFormula",
    "Term",
    "batch_objective_arrays",
    "canonicalize",
    "canonicalize_oracle",
    "clear_model_cache",
    "describe_formulas",
    "engine_options_for",
    "evaluate_batch",
    "family_of",
    "model_cache_size",
    "model_for",
    "no_pressure_peaks",
    "onchip_accesses_of",
    "predict_config",
    "predict_workload_config",
    "replay_chord",
    "replay_chord_batch",
    "schedule_cfg_key",
    "supports_config",
]
