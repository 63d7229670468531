"""Communication traffic patterns of the paper's workloads.

Each generator returns a list of (source, destination) node-id flows,
which the topology routes to derive link loads and congestion.  The
three application kernels of Section 6 map onto these:

* the 2-D FFT / air-shed **transpose** is an all-to-all personalized
  communication (every node exchanges a patch with every other);
* the **SOR** ghost exchange is a cyclic shift between neighbours;
* the **FEM** halo exchange talks to a handful of graph neighbours.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.errors import ModelError

__all__ = [
    "STEP_BUILDERS",
    "all_to_all",
    "cyclic_shift",
    "fan_in",
    "step_flows",
    "transpose_exchange",
    "neighbor_exchange",
]

Flow = Tuple[int, int]


def all_to_all(n_nodes: int, include_self: bool = False) -> List[Flow]:
    """All-to-all personalized communication (AAPC)."""
    return [
        (src, dst)
        for src in range(n_nodes)
        for dst in range(n_nodes)
        if include_self or src != dst
    ]


def cyclic_shift(n_nodes: int, offset: int = 1) -> List[Flow]:
    """Every node sends to its ``offset``-th successor (SOR exchange)."""
    return [(src, (src + offset) % n_nodes) for src in range(n_nodes)]


def fan_in(n_nodes: int, root: int = 0) -> List[Flow]:
    """N-to-1 fan-in: every node sends to ``root`` (gather/reduction).

    The serialization stress case: the root's receive engine serves
    every flow, so an unphased schedule races all senders against one
    deposit engine and one processor.
    """
    return [(src, root) for src in range(n_nodes) if src != root]


#: Uniform step patterns by their CLI ``--step`` name.
STEP_BUILDERS: Dict[str, Callable[[int], List[Flow]]] = {
    "all-to-all": all_to_all,
    "shift": cyclic_shift,
    "fan-in": fan_in,
}


def step_flows(step: str, n_nodes: int) -> List[Flow]:
    """The flows of the named :data:`STEP_BUILDERS` pattern.

    Raises:
        ModelError: Fewer than two nodes; a node cannot step with itself.
    """
    if n_nodes < 2:
        raise ModelError(f"a step pattern needs >= 2 nodes, got {n_nodes}")
    return STEP_BUILDERS[step](n_nodes)


def transpose_exchange(n_nodes: int) -> List[Flow]:
    """The flows of a distributed matrix transpose.

    With rows block-distributed before and columns block-distributed
    after, every node holds a patch for every other node — an AAPC.
    Kept as its own generator so application code reads like the paper.
    """
    return all_to_all(n_nodes)


def neighbor_exchange(adjacency: Sequence[Sequence[int]]) -> List[Flow]:
    """Halo-exchange flows from a partition adjacency structure.

    ``adjacency[p]`` lists the partitions that share boundary nodes
    with partition ``p`` (the FEM solver's communication graph).
    """
    flows: List[Flow] = []
    for src, neighbours in enumerate(adjacency):
        for dst in neighbours:
            if dst != src:
                flows.append((src, dst))
    return flows
