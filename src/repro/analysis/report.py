"""Schema validation for ``repro-lint-report/1`` payloads.

The CLI's ``lint --json`` output is consumed by CI jobs and external
tooling; this validator (mirroring :mod:`repro.faults.report`) pins
its shape so producers fail loudly when the schema drifts.

The payload shape::

    {
      "schema": "repro-lint-report/1",
      "results": [{"notation": "...", "diagnostics": [...]}, ...],
      "counts": {"error": 0, "warning": 1, "advice": 2},
      "ok": true
    }
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.shapes import Shape, problems

__all__ = ["LINT_SCHEMA", "validate_lint_report"]

LINT_SCHEMA = "repro-lint-report/1"

_SEVERITIES = ("error", "warning", "advice")

#: One diagnostic, as both the lint and the verify report carry it.
DIAGNOSTIC_SHAPE = Shape(
    dict,
    required={
        "rule": Shape(str),
        "severity": Shape(choices=_SEVERITIES),
        "message": Shape(str),
    },
    optional={
        "span": Shape(
            list,
            nullable=True,
            items=Shape(int),
            check=lambda span: None if len(span) == 2
            else "is not a [start, end] pair",
        ),
    },
)


def _counts_match_diagnostics(payload: Any) -> Optional[str]:
    tallied = dict.fromkeys(_SEVERITIES, 0)
    for result in payload["results"]:
        for entry in result["diagnostics"]:
            tallied[entry["severity"]] += 1
    if payload["counts"] != tallied:
        return "counts do not match the diagnostics lists"
    return None


#: The ``repro-lint-report/1`` format, as walked by
#: :func:`validate_lint_report`.
LINT_SHAPE = Shape(
    dict,
    required={
        "schema": Shape(choices=(LINT_SCHEMA,)),
        "ok": Shape(bool),
        "results": Shape(list, items=Shape(dict, required={
            "notation": Shape(str),
            "diagnostics": Shape(list, items=DIAGNOSTIC_SHAPE),
        })),
        "counts": Shape(
            dict, closed=True, required=dict.fromkeys(_SEVERITIES, Shape(int))
        ),
    },
    check=_counts_match_diagnostics,
)


def validate_lint_report(payload: Any) -> List[str]:
    """Structurally check one lint-report payload.

    Returns a list of problems; an empty list means the payload
    conforms to ``repro-lint-report/1``.
    """
    return problems(payload, LINT_SHAPE)
