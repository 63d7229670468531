"""Pure-hash uniform draws: reproducible randomness without RNG state.

:func:`uniform` hashes ``(seed, key)`` with SHA-256, so a draw depends
on nothing else: call order, worker sharding and event interleaving
cannot perturb a replay.  Fault plans
(:meth:`repro.faults.FaultPlan.uniform`) and the traffic engine's
workloads (:mod:`repro.load.workload`) both draw through it.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any

__all__ = ["uniform"]


def uniform(seed: int, *key: Any) -> float:
    """A reproducible uniform draw in ``[0, 1)`` for ``(seed, key)``."""
    payload = json.dumps(
        [seed, [repr(part) for part in key]], separators=(",", ":")
    )
    digest = hashlib.sha256(payload.encode()).digest()
    (word,) = struct.unpack(">Q", digest[:8])
    return word / float(1 << 64)
