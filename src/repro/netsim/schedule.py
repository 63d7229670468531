"""Phase scheduling for all-to-all personalized communication.

Section 4.3 leans on a strong claim: "even dense patterns like the
complete exchange or personalized all-to-all communication can be
scheduled with minimal congestion on T3D tori of up to 1024 compute
nodes" (citing Hinrichs et al. [8]).  The collective runtime assumes
it; this module substantiates it.

An AAPC *schedule* splits the n·(n-1) flows of a complete exchange
into n-1 phases of one send and one receive per node.  Each phase is a
permutation, so the peak link load per phase is far below the load of
firing all flows at once.  Two classic phase families:

* **shift** — phase k sends ``i -> (i + k) mod n``; works for any n;
* **xor** — phase k sends ``i -> i XOR k``; needs n a power of two, and
  on power-of-two tori each phase is a coordinate-wise reflection with
  provably minimal link contention.

:func:`schedule_congestion` evaluates a schedule's worst per-phase
link load on a concrete topology, which is what the runtime's
``scheduled=True`` congestion assumption rests on.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .topology import Topology

__all__ = [
    "aapc_phases_shift",
    "aapc_phases_xor",
    "schedule_congestion",
    "best_aapc_schedule",
    "partition_into_phases",
    "scheduled_congestion",
]

Flow = Tuple[int, int]
Phase = List[Flow]


def aapc_phases_shift(n_nodes: int) -> List[Phase]:
    """The shift schedule: phase k is the permutation ``i -> i + k``."""
    if n_nodes < 2:
        return []
    return [
        [(i, (i + k) % n_nodes) for i in range(n_nodes)]
        for k in range(1, n_nodes)
    ]


def aapc_phases_xor(n_nodes: int) -> List[Phase]:
    """The XOR schedule: phase k is the involution ``i -> i ^ k``.

    Requires a power-of-two node count; every phase is a perfect
    pairwise exchange, which dimension-order routing on power-of-two
    tori carries with minimal contention.
    """
    if n_nodes < 2:
        return []
    if n_nodes & (n_nodes - 1):
        raise ValueError(f"XOR schedule needs a power-of-two size, got {n_nodes}")
    return [
        [(i, i ^ k) for i in range(n_nodes)] for k in range(1, n_nodes)
    ]


def schedule_congestion(
    topology: Topology, phases: Sequence[Phase]
) -> Tuple[float, List[float]]:
    """Worst and per-phase link loads of a schedule on a topology.

    Returns ``(max_over_phases, per_phase_loads)``.  A schedule is
    "minimal congestion" in the paper's sense when the max stays at a
    small constant while the unscheduled pattern's worst-link load
    grows with machine size.
    """
    per_phase = [topology.max_link_congestion(phase) for phase in phases]
    return (max(per_phase) if per_phase else 0, per_phase)


def best_aapc_schedule(topology: Topology) -> Tuple[str, float, List[Phase]]:
    """Pick the lower-congestion schedule family for this topology.

    Returns ``(name, worst_phase_congestion, phases)``.
    """
    n = topology.n_nodes
    candidates: Dict[str, List[Phase]] = {"shift": aapc_phases_shift(n)}
    if n >= 2 and not (n & (n - 1)):
        candidates["xor"] = aapc_phases_xor(n)
    scored = {
        name: schedule_congestion(topology, phases)[0]
        for name, phases in candidates.items()
    }
    winner = min(scored, key=scored.get)
    return winner, scored[winner], candidates[winner]


def _is_complete_exchange(flows: Sequence[Flow]) -> int:
    """If ``flows`` is an AAPC over nodes 0..n-1, return n, else 0."""
    if not flows:
        return 0
    nodes = {node for flow in flows for node in flow}
    n = len(nodes)
    if nodes != set(range(n)):
        return 0
    if len(flows) != n * (n - 1) or len(set(flows)) != len(flows):
        return 0
    return n


def partition_into_phases(flows: Sequence[Flow]) -> List[Phase]:
    """Split flows into contention-free phases (one send/recv per node).

    Complete exchanges use the shift schedule; any other pattern is
    partitioned greedily — each flow goes into the first phase where
    both its endpoints are still free, which for permutation-like
    patterns (shifts, halo exchanges) yields one or two phases.
    """
    n = _is_complete_exchange(flows)
    if n:
        return aapc_phases_shift(n)
    phases: List[Phase] = []
    sources: List[set] = []
    destinations: List[set] = []
    for src, dst in flows:
        if src == dst:
            continue
        for index, phase in enumerate(phases):
            if src not in sources[index] and dst not in destinations[index]:
                phase.append((src, dst))
                sources[index].add(src)
                destinations[index].add(dst)
                break
        else:
            phases.append([(src, dst)])
            sources.append({src})
            destinations.append({dst})
    return phases


#: Cache of scheduled-congestion results: the per-flow routing work is
#: the slow part and patterns repeat across styles and benches.  Keyed
#: on the flows *in order*: the greedy partition depends on it.
_SCHEDULED_CACHE: Dict = {}


def scheduled_congestion(topology: Topology, flows: Sequence[Flow]) -> float:
    """Worst per-phase link congestion of the phase-scheduled pattern."""
    key = (
        type(topology).__name__,
        topology.dims,
        topology.wrap,
        topology.routing_key(),
        tuple(flows),
    )
    cached = _SCHEDULED_CACHE.get(key)
    if cached is None:
        phases = partition_into_phases(flows)
        cached, __ = schedule_congestion(topology, phases)
        _SCHEDULED_CACHE[key] = cached
    return cached
