"""The co-design search space: schedule knobs × CHORD/hardware knobs.

Sec. VI-B's argument is that CHORD collapses the *buffer-allocation*
search from ~10^80 choices to O(nodes + edges) metadata.  What remains
searchable is the small joint space this module enumerates:

* **schedule knobs** — the SCORE/engine ablation axes (`use_riff`,
  `explicit_retire`, `charge_swizzle`), encoded into the config *name*
  (``CELLO[...]``, see :mod:`repro.baselines.configs`) so tuned points
  flow through the runner's memoisation and the persistent store
  unchanged;
* **CHORD/hardware knobs** — RIFF index-table entries, SRAM capacity and
  line size, all carried by :class:`~repro.hw.config.AcceleratorConfig`
  (already part of every traffic key);
* **cache policy** — for the implicit baselines, the ``Flex+<policy>``
  family (LRU / BRRIP / SRRIP) competes in the same space.

A :class:`TunePoint` is one joint choice; a :class:`TuneSpace` is the
axis-product strategies search over.  Spaces are tiny by design — that
is the paper's point — so exhaustive enumeration is always available as
the ground truth the sampling strategies are tested against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.configs import CACHE_POLICIES, cello_variant_name
from ..hw.config import MIB, AcceleratorConfig
from ..sim.engine import EngineOptions


@dataclass(frozen=True)
class TunePoint:
    """One joint (schedule × buffer × hardware) design choice.

    ``cache_policy`` is ``None`` for the CELLO family (schedule knobs
    apply); a policy name selects the implicit-cache baseline instead, in
    which case the schedule knobs are meaningless and are normalised to
    their defaults so equal designs compare (and memoise) equal.
    """

    use_riff: bool = True
    explicit_retire: bool = True
    charge_swizzle: bool = True
    chord_entries: int = 64
    sram_bytes: int = 4 * MIB
    line_bytes: int = 16
    cache_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache_policy is not None:
            if self.cache_policy not in CACHE_POLICIES:
                raise ValueError(
                    f"unknown cache policy {self.cache_policy!r}; "
                    f"known: {sorted(CACHE_POLICIES)}"
                )
            for knob in ("use_riff", "explicit_retire", "charge_swizzle"):
                object.__setattr__(self, knob, True)
        if self.chord_entries <= 0 or self.sram_bytes <= 0:
            raise ValueError("chord_entries and sram_bytes must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")

    @property
    def is_cello(self) -> bool:
        return self.cache_policy is None

    def engine_options(self) -> Optional[EngineOptions]:
        """The engine ablation switches (None for cache-family points)."""
        if not self.is_cello:
            return None
        return EngineOptions(
            use_riff=self.use_riff,
            explicit_retire=self.explicit_retire,
            charge_swizzle=self.charge_swizzle,
        )

    def config_name(self) -> str:
        """The canonical runner/store config name of this point."""
        if self.cache_policy is not None:
            return f"Flex+{self.cache_policy}"
        options = self.engine_options()
        assert options is not None
        return cello_variant_name(options)

    def accel_cfg(self, base: AcceleratorConfig) -> AcceleratorConfig:
        """``base`` with this point's hardware knobs substituted in."""
        return replace(
            base,
            sram_bytes=self.sram_bytes,
            line_bytes=self.line_bytes,
            chord_entries=self.chord_entries,
        )

    def knobs(self) -> Dict[str, object]:
        """Flat knob dict (reports and serialisation)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_knobs(cls, data: Dict[str, object]) -> "TunePoint":
        kwargs = dict(data)
        policy = kwargs.get("cache_policy")
        kwargs["cache_policy"] = None if policy is None else str(policy)
        return cls(
            use_riff=bool(kwargs["use_riff"]),
            explicit_retire=bool(kwargs["explicit_retire"]),
            charge_swizzle=bool(kwargs["charge_swizzle"]),
            chord_entries=int(kwargs["chord_entries"]),  # type: ignore[arg-type]
            sram_bytes=int(kwargs["sram_bytes"]),  # type: ignore[arg-type]
            line_bytes=int(kwargs["line_bytes"]),  # type: ignore[arg-type]
            cache_policy=kwargs["cache_policy"],
        )


@dataclass(frozen=True)
class ColumnarGrid:
    """The CELLO block of a :class:`TuneSpace` as knob *columns*.

    Row ``i`` of every array is design point ``i`` in exactly the order
    :meth:`TuneSpace.points` enumerates (cache-policy points follow in
    :attr:`cache_points`).  The batch analytic evaluator consumes the
    columns directly; :class:`TunePoint` objects are only instantiated
    for the rows that survive pruning — at 10^5–10^6 points the object
    churn, not the model, is what used to dominate enumeration.
    """

    use_riff: np.ndarray        # bool, (n_cello,)
    explicit_retire: np.ndarray
    charge_swizzle: np.ndarray
    chord_entries: np.ndarray   # int64, (n_cello,)
    sram_bytes: np.ndarray
    line_bytes: np.ndarray
    #: The (small) implicit-cache block, already materialised.
    cache_points: Tuple[TunePoint, ...]

    @classmethod
    def of(cls, points: Sequence[TunePoint]) -> "ColumnarGrid":
        """An arbitrary batch of points as columns: CELLO points become
        rows in the order given, cache-policy points go to
        :attr:`cache_points`."""
        cello = [p for p in points if p.is_cello]

        def column(knob: str, dtype: type) -> np.ndarray:
            return np.asarray([getattr(p, knob) for p in cello], dtype=dtype)

        return cls(
            use_riff=column("use_riff", bool),
            explicit_retire=column("explicit_retire", bool),
            charge_swizzle=column("charge_swizzle", bool),
            chord_entries=column("chord_entries", np.int64),
            sram_bytes=column("sram_bytes", np.int64),
            line_bytes=column("line_bytes", np.int64),
            cache_points=tuple(p for p in points if not p.is_cello),
        )

    @property
    def n_cello(self) -> int:
        return int(self.use_riff.shape[0])

    def __len__(self) -> int:
        return self.n_cello + len(self.cache_points)

    def point_at(self, i: int) -> TunePoint:
        """``TuneSpace.points()[i]`` without materialising the grid."""
        n = len(self)
        if i < 0 or i >= n:
            raise IndexError(f"point index {i} out of range for {n} points")
        if i >= self.n_cello:
            return self.cache_points[i - self.n_cello]
        return TunePoint(
            use_riff=bool(self.use_riff[i]),
            explicit_retire=bool(self.explicit_retire[i]),
            charge_swizzle=bool(self.charge_swizzle[i]),
            chord_entries=int(self.chord_entries[i]),
            sram_bytes=int(self.sram_bytes[i]),
            line_bytes=int(self.line_bytes[i]),
        )

    def cello_index_of(self, point: TunePoint) -> Optional[int]:
        """Row index of a CELLO ``point``, or None when absent."""
        if not point.is_cello:
            return None
        hit = np.flatnonzero(
            (self.use_riff == point.use_riff)
            & (self.explicit_retire == point.explicit_retire)
            & (self.charge_swizzle == point.charge_swizzle)
            & (self.chord_entries == point.chord_entries)
            & (self.sram_bytes == point.sram_bytes)
            & (self.line_bytes == point.line_bytes)
        )
        return int(hit[0]) if hit.size else None


@dataclass(frozen=True)
class TuneSpace:
    """Axis-product search space.

    Each axis lists its candidate values with the paper's fixed point
    *first* — :meth:`default_point` (the incumbent every strategy must
    evaluate) is the head of every axis.  ``cache_policies`` is empty by
    default: the co-design question is about CELLO's knobs, and the cache
    baselines join only when explicitly requested.
    """

    use_riff: Tuple[bool, ...] = (True, False)
    explicit_retire: Tuple[bool, ...] = (True, False)
    charge_swizzle: Tuple[bool, ...] = (True, False)
    chord_entries: Tuple[int, ...] = (64,)
    sram_bytes: Tuple[int, ...] = (4 * MIB,)
    line_bytes: Tuple[int, ...] = (16,)
    cache_policies: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for axis in ("use_riff", "explicit_retire", "charge_swizzle",
                     "chord_entries", "sram_bytes", "line_bytes"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"axis {axis!r} must list at least one value")
            if len(set(values)) != len(values):
                raise ValueError(f"axis {axis!r} has duplicate values")
            # TunePoint holds the per-value rules; every axis value
            # must pass them, so no enumerated row is an invalid point.
            for v in values:
                TunePoint(**{axis: v})
        for p in self.cache_policies:
            TunePoint(cache_policy=p)

    # -- enumeration ---------------------------------------------------------

    def points(self) -> Tuple[TunePoint, ...]:
        """Every design point, deterministic order, CELLO family first.

        Cache-policy points vary only over the hardware axes that matter
        to a cache (SRAM, line size) — schedule knobs and the RIFF table
        are CHORD concepts and stay at their defaults.
        """
        out: List[TunePoint] = []
        for riff, retire, swz, entries, sram, line in itertools.product(
            self.use_riff, self.explicit_retire, self.charge_swizzle,
            self.chord_entries, self.sram_bytes, self.line_bytes,
        ):
            out.append(TunePoint(
                use_riff=riff, explicit_retire=retire, charge_swizzle=swz,
                chord_entries=entries, sram_bytes=sram, line_bytes=line,
            ))
        for policy, sram, line in itertools.product(
            self.cache_policies, self.sram_bytes, self.line_bytes,
        ):
            out.append(TunePoint(
                sram_bytes=sram, line_bytes=line, cache_policy=policy,
            ))
        return tuple(out)

    def __len__(self) -> int:
        cello = (len(self.use_riff) * len(self.explicit_retire)
                 * len(self.charge_swizzle) * len(self.chord_entries)
                 * len(self.sram_bytes) * len(self.line_bytes))
        cache = (len(self.cache_policies) * len(self.sram_bytes)
                 * len(self.line_bytes))
        return cello + cache

    def __iter__(self) -> Iterator[TunePoint]:
        return iter(self.points())

    def __contains__(self, point: TunePoint) -> bool:
        # Arithmetic membership — equivalent to `point in set(points())`
        # without materialising the grid (spaces can be 10^6 points now).
        if not isinstance(point, TunePoint):
            return False
        if point.is_cello:
            return (point.use_riff in self.use_riff
                    and point.explicit_retire in self.explicit_retire
                    and point.charge_swizzle in self.charge_swizzle
                    and point.chord_entries in self.chord_entries
                    and point.sram_bytes in self.sram_bytes
                    and point.line_bytes in self.line_bytes)
        # Cache points are enumerated at default CHORD knobs; a point
        # carrying a non-default RIFF table is not on the grid.
        if point.cache_policy not in self.cache_policies:
            return False
        if (point.sram_bytes not in self.sram_bytes
                or point.line_bytes not in self.line_bytes):
            return False
        return point == TunePoint(
            sram_bytes=point.sram_bytes, line_bytes=point.line_bytes,
            cache_policy=point.cache_policy,
        )

    def columnar(self) -> ColumnarGrid:
        """The space as knob columns (cached; see :class:`ColumnarGrid`).

        Row order is identical to :meth:`points`: the CELLO block is the
        axis product with the last axis fastest, cache-policy points
        follow as materialised :class:`TunePoint` objects.
        """
        cached = getattr(self, "_columnar", None)
        if cached is not None:
            return cached
        axes = (
            np.asarray(self.use_riff, dtype=bool),
            np.asarray(self.explicit_retire, dtype=bool),
            np.asarray(self.charge_swizzle, dtype=bool),
            np.asarray(self.chord_entries, dtype=np.int64),
            np.asarray(self.sram_bytes, dtype=np.int64),
            np.asarray(self.line_bytes, dtype=np.int64),
        )
        mesh = np.meshgrid(*axes, indexing="ij")
        cache_points = tuple(
            TunePoint(sram_bytes=sram, line_bytes=line, cache_policy=policy)
            for policy, sram, line in itertools.product(
                self.cache_policies, self.sram_bytes, self.line_bytes)
        )
        grid = ColumnarGrid(
            use_riff=mesh[0].ravel(),
            explicit_retire=mesh[1].ravel(),
            charge_swizzle=mesh[2].ravel(),
            chord_entries=mesh[3].ravel(),
            sram_bytes=mesh[4].ravel(),
            line_bytes=mesh[5].ravel(),
            cache_points=cache_points,
        )
        object.__setattr__(self, "_columnar", grid)
        return grid

    def default_point(self) -> TunePoint:
        """The incumbent: the paper's fixed CELLO configuration (all
        schedule knobs on, head value of every hardware axis)."""
        return TunePoint(
            chord_entries=self.chord_entries[0],
            sram_bytes=self.sram_bytes[0],
            line_bytes=self.line_bytes[0],
        )

    # -- strategy support ----------------------------------------------------

    def sample(self, rng: random.Random, k: int) -> Tuple[TunePoint, ...]:
        """``k`` distinct points, uniformly without replacement (the whole
        space when ``k`` ≥ its size — so a big enough random budget *is*
        the grid).

        Samples *indices* and materialises only the chosen points —
        ``random.sample`` draws the same index sequence for any sequence
        of the same length, so seeded draws are identical to the old
        materialise-everything implementation.
        """
        n = len(self)
        if k >= n:
            return self.points()
        grid = self.columnar()
        return tuple(grid.point_at(i) for i in rng.sample(range(n), k))

    def neighbors(self, point: TunePoint) -> Tuple[TunePoint, ...]:
        """Points differing from ``point`` in exactly one axis value
        (the greedy/halving refinement moves)."""
        out: List[TunePoint] = []
        if point.is_cello:
            axes = {
                "use_riff": self.use_riff,
                "explicit_retire": self.explicit_retire,
                "charge_swizzle": self.charge_swizzle,
                "chord_entries": self.chord_entries,
                "sram_bytes": self.sram_bytes,
                "line_bytes": self.line_bytes,
            }
        else:
            axes = {
                "cache_policy": self.cache_policies,
                "sram_bytes": self.sram_bytes,
                "line_bytes": self.line_bytes,
            }
        for axis, values in axes.items():
            for v in values:
                if v == getattr(point, axis):
                    continue
                out.append(replace(point, **{axis: v}))
        # Family switch: a CELLO point neighbours the cache points (and
        # vice versa) at the same SRAM/line geometry.
        if point.is_cello:
            for policy in self.cache_policies:
                out.append(TunePoint(
                    sram_bytes=point.sram_bytes, line_bytes=point.line_bytes,
                    cache_policy=policy,
                ))
        else:
            out.append(TunePoint(
                chord_entries=self.chord_entries[0],
                sram_bytes=point.sram_bytes, line_bytes=point.line_bytes,
            ))
        return tuple(out)
