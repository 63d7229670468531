"""Schema validation for ``repro-verify-report/1`` payloads.

Mirrors :mod:`repro.faults.report`: a structural validator that CI
(and the CLI itself, before printing) runs over the JSON envelope, so
schema drift fails loudly at the producer instead of silently at a
downstream consumer.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ...core.shapes import NUMBER, Shape, problems
from ..report import DIAGNOSTIC_SHAPE

__all__ = ["SCHEMA", "validate_verify_report"]

SCHEMA = "repro-verify-report/1"


def _ordered_bounds(row: Any) -> Optional[str]:
    return "has mbps_lo > mbps_hi" if row["mbps_lo"] > row["mbps_hi"] else None


def _reason_if_uncovered(verdict: Any) -> Optional[str]:
    if verdict["covered"] is False and verdict.get("reason") is None:
        return "is uncovered but gives no reason"
    return None


def _ok_matches_results(payload: Any) -> Optional[str]:
    if payload["ok"] != all(r["ok"] is True for r in payload["results"]):
        return "ok does not match the per-result verdicts"
    return None


_BOUND = Shape(dict, closed=True, check=_ordered_bounds, required={
    "phase": Shape(str),
    "mbps_lo": Shape(NUMBER),
    "mbps_hi": Shape(NUMBER),
    "lo_ns": Shape(NUMBER),
    "hi_ns": Shape(NUMBER),
})

_RESULT = Shape(dict, closed=True, required={
    "target": Shape(str),
    "machine": Shape(),
    "style": Shape(),
    "schedule": Shape(),
    "discipline": Shape(),
    "ok": Shape(bool),
    "estimate_mbps": Shape(NUMBER, nullable=True),
    "bounds": Shape(list, items=_BOUND),
    "coverage": Shape(dict, values=Shape(
        dict,
        required={"covered": Shape(bool)},
        optional={"reason": Shape(str, nullable=True)},
        check=_reason_if_uncovered,
    )),
    "diagnostics": Shape(list, items=DIAGNOSTIC_SHAPE),
})

#: The ``repro-verify-report/1`` format, as walked by
#: :func:`validate_verify_report`.
SHAPE = Shape(
    dict,
    required={
        "schema": Shape(choices=(SCHEMA,)),
        "ok": Shape(bool),
        "counts": Shape(dict, values=Shape(int)),
        "results": Shape(list, items=_RESULT),
    },
    check=_ok_matches_results,
)


def validate_verify_report(payload: Any) -> List[str]:
    """Structurally check one verify-report payload.

    Returns a list of problems; an empty list means the payload
    conforms to ``repro-verify-report/1``.
    """
    return problems(payload, SHAPE)
