"""Canonical example plans the verifier's consumers share.

The CLI demos (``python -m repro verify --step ...``), the golden
diagnostics files, ``scripts/selfcheck.py`` and the CI smoke job all
need the same seeded plans: one that is *clean*, one with a seeded
resource race (an eager N-to-1 fan-in hammering the root's receive
engines), and one with a seeded rendezvous deadlock (a cyclic shift
under PVM-style blocking sends).  Defining them once keeps every
consumer bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ...compiler.commgen import CommOp, CommPlan
from ...core.errors import ModelError
from ...core.patterns import AccessPattern
from ...machines.base import Machine
from ...memsim.config import WORD_BYTES
from ...netsim.patterns import STEP_BUILDERS, step_flows
from ...runtime.collectives import ALGORITHMS, collective_rounds
from .api import DEFAULT_NBYTES, VerifyResult, results_payload, verify_plan

__all__ = [
    "EXAMPLES",
    "STEP_BUILDERS",
    "ExampleSpec",
    "collective_plan",
    "example_machine",
    "example_result",
    "example_payload",
    "step_plan",
]

@dataclass(frozen=True)
class ExampleSpec:
    """One named example plan configuration."""

    step: str
    nodes: int = 8
    x: str = "1"
    y: str = "64"
    nbytes: int = DEFAULT_NBYTES
    schedule: str = "phased"
    discipline: str = "interleaved"


#: The three canonical examples, by verdict they demonstrate.
EXAMPLES: Dict[str, ExampleSpec] = {
    # A phased cyclic shift: conflict-free phases, interleaved
    # rendezvous — verifies clean.
    "clean": ExampleSpec(step="shift"),
    # An *eager* fan-in races every sender against the root node's
    # processor and deposit engine — CT211.
    "racy": ExampleSpec(step="fan-in", schedule="eager"),
    # A cyclic shift where every node posts its send before its
    # receive — the full wait-for cycle, CT212.
    "deadlock": ExampleSpec(step="shift", discipline="blocking-sends"),
}


def collective_plan(
    op: str,
    nodes: int,
    x: str = "1",
    y: str = "64",
    nbytes: int = DEFAULT_NBYTES,
    algorithm: str = None,
) -> CommPlan:
    """Lower a whole collective into the verifier's plan IR.

    The rounds come from :func:`repro.runtime.collectives.collective_rounds`
    — the same source the runtime executes — concatenated in round order
    so the CT21x passes see every flow the operation performs.  Each
    round's ``bytes_per_flow`` carries through as per-op ``nwords``, so
    the bounds pass (CT214) brackets the real per-round payloads.
    """
    if algorithm is None:
        algorithm = ALGORITHMS[op][0] if op in ALGORITHMS else None
    rounds = collective_rounds(op, algorithm, nodes, nbytes)
    read = AccessPattern.parse(x)
    write = AccessPattern.parse(y)
    ops: List[CommOp] = []
    for rnd in rounds:
        nwords = max(1, rnd.bytes_per_flow // WORD_BYTES)
        ops.extend(
            CommOp(src=src, dst=dst, x=read, y=write, nwords=nwords)
            for src, dst in rnd.flows
        )
    return CommPlan(ops=ops, name=f"{op}/{algorithm}[{nodes}]")


def step_plan(
    step: str,
    nodes: int,
    x: str = "1",
    y: str = "64",
    nbytes: int = DEFAULT_NBYTES,
) -> CommPlan:
    """Build a plan for one named step pattern or collective op."""
    if step in ALGORITHMS:
        return collective_plan(step, nodes, x=x, y=y, nbytes=nbytes)
    if step not in STEP_BUILDERS:
        raise ModelError(
            f"unknown step pattern {step!r}; choose from "
            f"{sorted(STEP_BUILDERS) + sorted(ALGORITHMS)}"
        )
    flows = step_flows(step, nodes)
    read = AccessPattern.parse(x)
    write = AccessPattern.parse(y)
    nwords = max(1, nbytes // WORD_BYTES)
    return CommPlan(
        ops=[
            CommOp(src=src, dst=dst, x=read, y=write, nwords=nwords)
            for src, dst in flows
        ],
        name=f"{step}[{nodes}]",
    )


def example_machine(machine_key: str) -> Machine:
    from ...machines.registry import MACHINE_FACTORIES

    try:
        return MACHINE_FACTORIES[machine_key]()
    except KeyError:
        raise ModelError(
            f"unknown machine {machine_key!r}; choose from "
            f"{sorted(MACHINE_FACTORIES)}"
        ) from None


def example_result(machine_key: str, example: str) -> VerifyResult:
    """Verify one named example on one machine."""
    try:
        spec = EXAMPLES[example]
    except KeyError:
        raise ModelError(
            f"unknown example {example!r}; choose from {sorted(EXAMPLES)}"
        ) from None
    plan = step_plan(
        spec.step, spec.nodes, x=spec.x, y=spec.y, nbytes=spec.nbytes
    )
    model = example_machine(machine_key).model()
    return verify_plan(
        plan,
        model=model,
        schedule=spec.schedule,
        discipline=spec.discipline,
    )


def example_payload(machine_key: str, example: str) -> Dict[str, Any]:
    """The full ``repro-verify-report/1`` payload for one example."""
    return results_payload([example_result(machine_key, example)])
