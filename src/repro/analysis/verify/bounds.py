"""Interval abstract interpretation of composition expressions.

The evaluator (:mod:`repro.core.throughput`) computes one number; this
module computes a *guaranteed bracket* around that number without
running it.  The abstract domain is the closed interval
``[mbps_lo, mbps_hi]``:

* the **upper** end folds the paper's composition rules alone —
  ``min`` over parallel branches, harmonic over sequential chains —
  ignoring every resource constraint, so no constraint application can
  push the concrete figure above it;
* the **lower** end takes that same fold and caps it by *every*
  resource constraint's limit, which is exactly the most any
  combination of constraints can subtract, so the concrete figure can
  never fall below it.

The concrete evaluator applies a subset of those caps (the binding
ones), hence ``mbps_lo <= evaluate(...).mbps <= mbps_hi`` holds *by
construction* — the CT214 pass turns a violation of that bracket into
a diagnostic, catching any future drift between the evaluator and the
composition rules.

Time bounds invert throughput: at 1 MB/s a byte takes a nanosecond, so
``ns = nbytes / mbps * 1000``.  Note the inversion swaps the ends —
the *fastest* rate gives the *lower* time bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...core.calibration import ThroughputTable
from ...core.composition import Expr, Par, Seq, Term
from ...core.constraints import ResourceConstraint
from ...core.errors import CalibrationError, ModelError

__all__ = [
    "Interval",
    "PhaseBound",
    "rate_interval",
    "phase_bounds",
]


@dataclass(frozen=True)
class Interval:
    """A closed throughput interval in MB/s."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ModelError(
                f"degenerate interval: lo {self.lo} > hi {self.hi}"
            )

    def contains(self, value: float, rel_tol: float = 1e-9) -> bool:
        slack_lo = self.lo * rel_tol
        slack_hi = self.hi * rel_tol
        return (self.lo - slack_lo) <= value <= (self.hi + slack_hi)


@dataclass(frozen=True)
class PhaseBound:
    """Static bounds for one phase of an operation.

    ``phase`` names the sub-expression (paper notation) or pipeline
    phase; the ns bounds are for moving ``nbytes`` through it.
    """

    phase: str
    mbps_lo: float
    mbps_hi: float
    lo_ns: float
    hi_ns: float


def _fold(expr: Expr, table: ThroughputTable) -> float:
    """The unconstrained composition fold (mirrors the evaluator)."""
    if isinstance(expr, Term):
        return table.lookup(expr.transfer)
    if isinstance(expr, Par):
        return min(_fold(part, table) for part in expr.parts)
    if isinstance(expr, Seq):
        rates = [_fold(part, table) for part in expr.parts]
        if any(rate <= 0.0 for rate in rates):
            raise ModelError(
                f"cannot bound {expr.notation()}: a sequential step has "
                "zero throughput"
            )
        return 1.0 / sum(1.0 / rate for rate in rates)
    raise ModelError(f"cannot bound expression node {expr!r}")


def rate_interval(
    expr: Expr,
    table: ThroughputTable,
    constraints: Sequence[ResourceConstraint] = (),
) -> Optional[Interval]:
    """The static throughput bracket for one expression.

    Returns ``None`` when the table cannot calibrate a leaf (that is
    the CT202 lint rule's report, not a bounds violation).
    """
    try:
        fold = _fold(expr, table)
        limits = [constraint.limit(table) for constraint in constraints]
    except CalibrationError:
        return None
    return Interval(lo=min([fold] + limits), hi=fold)


def _ns(nbytes: int, mbps: float) -> float:
    return nbytes / mbps * 1000.0


def phase_bounds(
    expr: Expr,
    table: ThroughputTable,
    nbytes: int,
    constraints: Sequence[ResourceConstraint] = (),
) -> List[PhaseBound]:
    """Per-phase and total static bounds for one operation.

    The phases of a composition are its top-level sequential parts
    (a non-``Seq`` root is a single phase).  The ``"total"`` row
    bounds the whole expression *with* constraints — the row CT214
    checks :meth:`~repro.core.model.CopyTransferModel.estimate`
    against; per-phase rows are informational (constraints apply to
    the whole operation, not to a phase in isolation).
    """
    rows: List[PhaseBound] = []
    parts: Tuple[Expr, ...] = (
        expr.parts if isinstance(expr, Seq) else (expr,)
    )
    if len(parts) > 1:
        for part in parts:
            interval = rate_interval(part, table)
            if interval is None:
                return []
            rows.append(
                PhaseBound(
                    phase=part.notation(top=False),
                    mbps_lo=interval.lo,
                    mbps_hi=interval.hi,
                    lo_ns=_ns(nbytes, interval.hi),
                    hi_ns=_ns(nbytes, interval.lo),
                )
            )
    total = rate_interval(expr, table, constraints)
    if total is None:
        return []
    rows.append(
        PhaseBound(
            phase="total",
            mbps_lo=total.lo,
            mbps_hi=total.hi,
            lo_ns=_ns(nbytes, total.hi),
            hi_ns=_ns(nbytes, total.lo),
        )
    )
    return rows
