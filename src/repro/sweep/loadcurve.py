"""Latency-vs-offered-load curves: where the hockey stick bends.

The load engine answers "what is p99 at this arrival rate?"; this
module sweeps the question across arrival-rate multipliers and reports
the whole curve — the canonical way to find a configuration's
capacity and to demonstrate that overload protection keeps the tail
bounded where the unprotected engine's p99 takes off.

Each point scales the base profile with
:meth:`~repro.load.workload.LoadProfile.scaled` (open-loop rates
multiplied, closed-loop populations rounded up) and runs one full
simulation.  Points are independent, so ``workers > 1`` fans them out
over a process pool — with the sweep engine's merge discipline: the
result is assembled in multiplier order, never completion order, and
is bit-identical to the serial run.

The payload (schema ``repro-load-curve/1``) carries, per point, the
offered / completed / goodput counts and the latency tail, plus a
*knee* estimate: the first multiplier whose p99 exceeds
``knee_factor`` times the first point's p99 — the classic operational
definition of "the curve went vertical here".
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.errors import LoadError
from ..faults.spec import FaultPlan
from ..load.engine import LoadEngine, valid_horizon
from ..load.workload import LoadProfile, checked_multiplier
from .runner import _pool_context

__all__ = ["CURVE_SCHEMA", "run_load_curve"]

CURVE_SCHEMA = "repro-load-curve/1"

#: Default sweep: half capacity through deep saturation.
DEFAULT_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


def _check_multipliers(multipliers: Sequence[float]) -> Tuple[float, ...]:
    values = tuple(checked_multiplier(m) for m in multipliers)
    if not values:
        raise LoadError("latency curve needs at least one multiplier")
    for previous, value in zip(values, values[1:]):
        if value <= previous:
            raise LoadError(
                "load multipliers must be strictly increasing, got "
                f"{value} after {previous}"
            )
    return values


def _run_point(
    payload: Tuple[Dict[str, Any], int, float, float, Optional[Dict[str, Any]]]
) -> Dict[str, Any]:
    """One curve point (top-level so process pools can pickle it)."""
    profile_dict, seed, horizon_ns, multiplier, faults_dict = payload
    profile = LoadProfile.from_dict(profile_dict).scaled(multiplier)
    faults = (
        FaultPlan.from_dict(faults_dict) if faults_dict is not None else None
    )
    result = LoadEngine(profile, seed=seed, faults=faults).run(horizon_ns)
    report = result.to_dict()
    latency = report["latency_ns"]
    point: Dict[str, Any] = {
        "multiplier": multiplier,
        "offered": report["offered"],
        "completed": report["completed"],
        "goodput_per_s": report["throughput"]["requests_per_s"],
        "p50_ns": latency["p50"],
        "p99_ns": latency["p99"],
        "p999_ns": latency["p999"],
        "mean_ns": latency["mean"],
    }
    overload = report.get("overload")
    if overload is not None:
        totals = overload["totals"]
        point["rejected"] = totals["rejected"]
        point["evicted"] = totals["evicted"]
        point["shed"] = totals["shed"]
        point["broken"] = totals["broken"]
        point["retried"] = totals["retried"]
    return point


def _find_knee(
    points: Sequence[Dict[str, Any]], knee_factor: float
) -> Optional[float]:
    """First multiplier whose p99 blows past ``knee_factor`` x baseline.

    The baseline is the first point with a non-zero p99 (the lowest
    offered load swept).  ``None`` means the curve never bent — the
    sweep stayed under capacity, or protection held the tail flat.
    """
    baseline = next(
        (p["p99_ns"] for p in points if p["p99_ns"] > 0.0), None
    )
    if baseline is None:
        return None
    for point in points:
        if point["p99_ns"] > knee_factor * baseline:
            return point["multiplier"]
    return None


def run_load_curve(
    profile: LoadProfile,
    seed: int,
    horizon_ns: float,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    workers: int = 1,
    faults: Optional[FaultPlan] = None,
    knee_factor: float = 3.0,
) -> Dict[str, Any]:
    """Sweep ``profile`` across arrival-rate multipliers.

    Args:
        profile: Base traffic description (multiplier 1.0).
        seed: Replay seed shared by every point.
        horizon_ns: Simulated duration per point.
        multipliers: Strictly increasing positive rate multipliers.
        workers: Process count; points fan out but merge in multiplier
            order, so the payload is identical for any value.
        faults: Optional fault plan applied to every point.
        knee_factor: p99 blow-up ratio that marks the knee.

    Returns:
        The ``repro-load-curve/1`` payload (canonical-JSON friendly).

    Raises:
        LoadError: Bad multipliers, a non-positive knee factor, or a
            duration that is not finite and positive.
    """
    values = _check_multipliers(multipliers)
    if knee_factor <= 1.0:
        raise LoadError(
            f"knee factor must be > 1, got {knee_factor}"
        )
    if not valid_horizon(horizon_ns):
        raise LoadError("curve duration must be finite and positive")
    faults_dict = faults.to_dict() if faults is not None else None
    jobs = [
        (profile.to_dict(), seed, horizon_ns, multiplier, faults_dict)
        for multiplier in values
    ]
    if workers <= 1 or len(jobs) <= 1:
        points = [_run_point(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)),
            mp_context=_pool_context(),
        ) as pool:
            # Deterministic merge: map() preserves job order, so the
            # curve is in multiplier order whatever finishes first.
            points = list(pool.map(_run_point, jobs))
    return {
        "schema": CURVE_SCHEMA,
        "profile": profile.to_dict(),
        "seed": seed,
        "duration_ns": horizon_ns,
        "multipliers": list(values),
        "knee_factor": knee_factor,
        "points": points,
        "knee_multiplier": _find_knee(points, knee_factor),
    }
