"""The ``python -m repro load`` report format and its validator.

The load CLI emits one JSON object per run.  The CI load job replays
``--seed 7`` and validates the payload with
:func:`validate_load_report`, so the schema is load-bearing:

* ``schema`` — format tag, currently ``"repro-load-report/1"``;
* ``machine`` / ``profile`` / ``seed`` / ``duration_ns`` — what ran;
  ``profile`` is the full workload description, replayable verbatim;
* ``end_ns`` — when the last drained request finished;
* ``offered`` / ``completed`` — request counts;
* ``latency_ns`` — ``{count, mean, min, max, p50, p99, p999}``
  (nearest-rank percentiles over completed requests);
* ``throughput`` — ``{completed, requests_per_s}``;
* ``stations`` — per-station ``{served, busy_ns, utilization,
  mean_depth, max_depth}``; reports that carry ``overload`` add
  ``rejected`` / ``shed`` / ``shed_wait_ns``;
* ``faults`` — the composed fault plan, or ``null`` when healthy;
* ``overload`` — on protected runs (a non-noop overload spec or any
  template deadline) and on any run in which a transfer abort broke a
  request: the versioned ``repro-load-overload/1`` section with the
  protection spec, the admission policy's self-description,
  per-generator accept / reject / shed / broken / retry tallies,
  goodput, and per-link breaker states.  Other reports omit the key
  entirely, keeping the format of a run without protection.

Wall-clock facts (events/sec, elapsed seconds) are *not* part of the
payload: the canonical JSON below must be bit-identical across
replays, worker counts and host machines.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..core.serialization import canonical_digest as digest
from ..core.serialization import canonical_json
from ..core.shapes import NUMBER, Shape, problems, replays
from ..faults.spec import FaultPlan
from .overload import OverloadSpec
from .workload import LoadProfile

__all__ = [
    "OVERLOAD_SCHEMA",
    "SCHEMA",
    "canonical_json",
    "digest",
    "validate_load_report",
]

SCHEMA = "repro-load-report/1"

OVERLOAD_SCHEMA = "repro-load-overload/1"

_LATENCY_KEYS = ("count", "mean", "min", "max", "p50", "p99", "p999")

_STATION_KEYS = ("served", "busy_ns", "utilization", "mean_depth", "max_depth")

_GENERATOR_KEYS = (
    "offered", "accepted", "completed", "rejected", "evicted", "shed",
    "broken", "retried",
)

_BREAKER_STATES = ("closed", "open", "half-open")


def _percentiles_in_order(latency: Any) -> Optional[str]:
    if latency["count"] > 0 and not (
        latency["min"] <= latency["p50"]
        <= latency["p99"] <= latency["p999"] <= latency["max"]
    ):
        return "percentiles out of order"
    return None


_COUNT = Shape(int, minimum=0)

_AMOUNT = Shape(NUMBER, minimum=0)

_OVERLOAD_SHAPE = Shape(dict, required={
    "schema": Shape(choices=(OVERLOAD_SCHEMA,)),
    "spec": Shape(dict, check=replays(OverloadSpec.from_dict)),
    "admission": Shape(dict, required={"policy": Shape()}),
    "generators": Shape(dict, values=Shape(
        dict, required=dict.fromkeys(_GENERATOR_KEYS, _COUNT)
    )),
    "totals": Shape(dict),
    "goodput": Shape(dict, required={"goodput_per_s": Shape()}),
    "breakers": Shape(dict, values=Shape(
        dict, required={"state": Shape(choices=_BREAKER_STATES)}
    )),
})

#: The ``repro-load-report/1`` format, as walked by
#: :func:`validate_load_report`.
SHAPE = Shape(
    dict,
    required={
        "schema": Shape(choices=(SCHEMA,)),
        "machine": Shape(str, nonempty=True),
        "seed": _COUNT,
        "duration_ns": _AMOUNT,
        "end_ns": _AMOUNT,
        "offered": _COUNT,
        "completed": _COUNT,
        "profile": Shape(dict, check=replays(LoadProfile.from_dict)),
        "latency_ns": Shape(
            dict,
            required=dict.fromkeys(_LATENCY_KEYS, _AMOUNT),
            check=_percentiles_in_order,
        ),
        "throughput": Shape(dict, required={"requests_per_s": Shape()}),
        "stations": Shape(dict, values=Shape(
            dict, required=dict.fromkeys(_STATION_KEYS, _AMOUNT)
        )),
    },
    optional={
        "faults": Shape(
            dict, nullable=True, check=replays(FaultPlan.from_dict)
        ),
        "overload": _OVERLOAD_SHAPE,
    },
)


def validate_load_report(payload: Any) -> List[str]:
    """Structural errors in a load report (empty list = valid)."""
    return problems(payload, SHAPE)
