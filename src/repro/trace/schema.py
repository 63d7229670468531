"""The on-disk trace format and its validator.

``python -m repro trace`` writes the Chrome Trace Event Format (the
JSON Object Format variant: a top-level object with a ``traceEvents``
array), which both ``chrome://tracing`` and Perfetto load directly.
We use a small, fixed subset:

* ``ph: "X"`` complete events — one per span, with ``ts``/``dur`` in
  microseconds (fractional; simulated time), ``cat`` the span
  category, ``pid`` 0, and ``tid`` the span's track index;
* ``ph: "M"`` metadata events naming each track
  (``thread_name``) so timelines show "sender_cpu" instead of "tid 3";
* ``ph: "C"`` counter events for the final value of every counter
  metric.

Alongside ``traceEvents`` the object carries ``displayTimeUnit``,
``metadata`` (machine, operation, result figures) and ``metrics``
(the :class:`~repro.trace.metrics.MetricsRegistry` snapshot) — extra
top-level keys are explicitly allowed by the trace-event spec.

:func:`validate_chrome_trace` checks structural conformance and is
what the CI trace smoke job runs against the emitted file.
"""

from __future__ import annotations

from typing import Any, List

from ..core.shapes import NUMBER, Shape, problems

__all__ = ["PHASES", "validate_chrome_trace"]

_TIME = Shape(NUMBER, minimum=0)

_EVENT = Shape(
    dict,
    required={
        "name": Shape(str, nonempty=True),
        "pid": Shape(int),
        "tid": Shape(int),
    },
    tag="ph",
    variants={
        "X": Shape(required={"ts": _TIME, "dur": _TIME},
                   optional={"cat": Shape(str)}),
        "M": Shape(required={
            "args": Shape(dict, required={"name": Shape(str)}),
        }),
        "C": Shape(required={
            "args": Shape(dict, nonempty=True, values=Shape(NUMBER)),
        }),
    },
)

#: Event phases this exporter may emit.
PHASES = tuple(_EVENT.variants)

#: The exported trace, as walked by :func:`validate_chrome_trace`.
SHAPE = Shape(
    dict,
    required={"traceEvents": Shape(list, nonempty=True, items=_EVENT)},
    optional={
        "displayTimeUnit": Shape(choices=("ms", "ns"), nullable=True),
    },
)


def validate_chrome_trace(payload: Any) -> List[str]:
    """Structural errors in an exported trace (empty list = valid)."""
    return problems(payload, SHAPE)
