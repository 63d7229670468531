"""The ``python -m repro faults`` report format and its validator.

The faults CLI emits one JSON object comparing a nominal (fault-free)
run against the same operation under a fault plan.  The CI chaos job
replays ``--seed 7`` and validates the emitted payload with
:func:`validate_faults_report`, so the schema below is load-bearing:

* ``schema`` — format tag, currently ``"repro-faults-report/1"``;
* ``machine`` / ``operation`` / ``style`` / ``nbytes`` — what ran;
* ``seed`` / ``plan`` — the full fault plan (replayable verbatim via
  ``--plan``);
* ``nominal`` / ``degraded`` — ``{mbps, ns, phase_ns}`` for each run,
  with ``degraded`` additionally carrying ``retries`` and an optional
  ``fallback`` (a :class:`~repro.faults.degrade.DegradedResult` dict);
* ``delta`` — throughput lost to the faults;
* ``counters`` — the fault-related trace counters of the degraded run.
"""

from __future__ import annotations

from typing import Any, List

from ..core.shapes import NUMBER, Shape, problems, replays
from .spec import FaultPlan

__all__ = ["SCHEMA", "validate_faults_report"]

SCHEMA = "repro-faults-report/1"


_NAME = Shape(str, nonempty=True)

_RUN = {
    "mbps": Shape(NUMBER, above=0),
    "ns": Shape(NUMBER, above=0),
    "phase_ns": Shape(
        dict, nullable=True, values=Shape(NUMBER, minimum=0)
    ),
}

#: The ``repro-faults-report/1`` format, as walked by
#: :func:`validate_faults_report`.
SHAPE = Shape(
    dict,
    required={
        "schema": Shape(choices=(SCHEMA,)),
        "machine": _NAME,
        "operation": _NAME,
        "style": _NAME,
        "nbytes": Shape(int, minimum=1),
        "seed": Shape(int),
        "plan": Shape(dict, check=replays(FaultPlan.from_dict)),
        "nominal": Shape(dict, required=_RUN),
        "degraded": Shape(
            dict,
            required=_RUN,
            optional={
                "retries": Shape(int, minimum=0),
                "fallback": Shape(dict, nullable=True, required={
                    "fault": Shape(str),
                    "requested": Shape(str),
                    "fallback": Shape(str),
                    "nominal_mbps": Shape(NUMBER),
                    "degraded_mbps": Shape(NUMBER),
                }),
            },
        ),
        "delta": Shape(dict, required={"throughput_pct": Shape()}),
    },
    optional={"counters": Shape(dict, nullable=True)},
)


def validate_faults_report(payload: Any) -> List[str]:
    """Structural errors in a faults report (empty list = valid)."""
    return problems(payload, SHAPE)
