"""Seeded workload inputs: a pure function of ``(workload, seed)``.

Nothing here imports ``repro``: the program under test receives only
what these functions generate, and the self-tests can check the ranges
without running anything.  Every workload returns the list of pass
inputs one measurement unit executes; the run repeats units until its
time budget is spent.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("regen-cold", "collectives", "traffic-open", "traffic-overload")

#: Workloads that start from the pre-filled calibration cache.
WARM_WORKLOADS = ("collectives", "traffic-open", "traffic-overload")

#: The strides the committed figure-4 goldens pin.
GOLDEN_STRIDES = (2, 4, 8, 16, 32, 64)

#: Seeded figure-4 strides per machine, drawn from ``STRIDE_RANGE``.
SEEDED_STRIDES = 6
STRIDE_RANGE = (2, 256)

#: Collective grid axes: a fixed 16-node partition plus one seeded
#: non-power-of-two count from each range, and one latency-bound plus
#: one bandwidth-bound seeded size (bytes, whole words).
FIXED_NODES = 16
SMALL_NODES = (9, 31)
LARGE_NODES = (33, 63)
LATENCY_BYTES = (256, 8 * 1024)
BANDWIDTH_BYTES = (256 * 1024, 2 * 1024 * 1024)
WORD = 8

#: Simulated seconds each traffic profile runs.
HORIZON_NS = 5e9

#: Built-in profiles of the unprotected traffic workload.
OPEN_PROFILES = ("steady", "bursty", "closed")

#: The protected traffic workload: ``steady`` at this rate multiple,
#: with this overload protection and ``FaultPlan.chaos(seed)``.
OVERLOAD_MULTIPLIER = 3.0
OVERLOAD_SPEC = {
    "admission": "bounded-queue",
    "queue_limit": 16,
    "station_capacity": 16,
    "reject_retry": "backoff",
    "max_retries": 2,
    "breaker_threshold": 5,
}


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed hashes deterministically (unlike hash() of a str).
    return random.Random(f"perfbench:{workload}:{seed}")


def _is_power_of_two(value: int) -> bool:
    return value & (value - 1) == 0


def _word_size(rng: random.Random, bounds) -> int:
    low, high = bounds
    return rng.randrange(low // WORD, high // WORD + 1) * WORD


def regen_inputs(seed: int) -> List[Dict[str, Any]]:
    """Golden plus six seeded figure-4 strides per machine."""
    rng = _rng("regen-cold", seed)
    pool = [
        stride for stride in range(STRIDE_RANGE[0], STRIDE_RANGE[1] + 1)
        if stride not in GOLDEN_STRIDES
    ]
    strides = {
        machine: sorted(rng.sample(pool, SEEDED_STRIDES))
        for machine in ("t3d", "paragon")
    }
    return [{"seeded_strides": strides}]


def _spread(rng: random.Random, bounds) -> List[int]:
    """Four points covering ``bounds`` evenly, from one seeded offset.

    In range-relative terms the points are ``t, 1 - t, t + 1/2`` and
    ``1/2 - t`` for a seeded ``t`` in ``[0, 1/2)``: a reflected and
    shifted systematic sample, so any cost that is linear in the value
    sums to the same total whatever ``t`` is.
    """
    low, high = bounds
    offset = rng.random() / 2.0
    return [
        low + round(fraction * (high - low))
        for fraction in (offset, 1.0 - offset, offset + 0.5, 0.5 - offset)
    ]


def _not_power_of_two(count: int) -> int:
    return count + 1 if _is_power_of_two(count) else count


def collectives_inputs(seed: int) -> List[Dict[str, Any]]:
    """Four seeded grids that together cover each axis evenly.

    Host time grows steeply with node count and message size, so one
    grid of two random counts and two random sizes makes cells/s swing
    several-fold from seed to seed.  The unit therefore runs four
    grids; along each seeded axis their four values are
    :func:`_spread` points, so the unit's total work is nearly
    seed-independent while every grid stays inside the stated ranges.
    """
    rng = _rng("collectives", seed)
    small = [_not_power_of_two(n) for n in _spread(rng, SMALL_NODES)]
    large = [_not_power_of_two(n) for n in _spread(rng, LARGE_NODES)]
    latency = [size // WORD * WORD for size in _spread(rng, LATENCY_BYTES)]
    bandwidth = [
        size // WORD * WORD for size in _spread(rng, BANDWIDTH_BYTES)
    ]
    return [
        {"nodes": [FIXED_NODES, n_small, n_large], "sizes": [lat, bw]}
        for n_small, n_large, lat, bw in zip(small, large, latency, bandwidth)
    ]


def engine_seed(seed: int) -> int:
    """The load engine's seed (it must be non-negative)."""
    return seed & 0x7FFFFFFF


def traffic_open_inputs(seed: int) -> List[Dict[str, Any]]:
    return [{
        "profiles": list(OPEN_PROFILES),
        "horizon_ns": HORIZON_NS,
        "seed": engine_seed(seed),
    }]


def traffic_overload_inputs(seed: int) -> List[Dict[str, Any]]:
    return [{
        "profile": "steady",
        "multiplier": OVERLOAD_MULTIPLIER,
        "overload": dict(OVERLOAD_SPEC),
        "horizon_ns": HORIZON_NS,
        "seed": engine_seed(seed),
        "faults_seed": engine_seed(seed),
    }]


_GENERATORS = {
    "regen-cold": regen_inputs,
    "collectives": collectives_inputs,
    "traffic-open": traffic_open_inputs,
    "traffic-overload": traffic_overload_inputs,
}


def unit_inputs(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The pass inputs of one measurement unit of ``workload``."""
    return _GENERATORS[workload](seed)
