"""The verifier's dataflow passes (rule band CT21x).

Each pass is a rule registered in the shared registry
(:mod:`repro.analysis.rules`) under the ``"verify"`` scope, so rule
ids stay globally unique and `lint --rules` filtering works across
tiers — but the passes run only through :func:`run_verify`, never
through the linter's ``analyze()``/``analyze_plan()`` entry points.
They are all **warning** severity: the severity-policy invariant
(error iff ``Expr.validate()`` raises) belongs to the CT1xx band and
the verifier must not disturb it.  A CT21x warning still fails
``python -m repro verify`` — the CLI's exit code keys on the CT21x
band, not on severity.

The passes:

* **CT211** — resource race: two mutually unordered IR nodes claim the
  same exclusive resource (deposit engine, DMA, a node's processor).
* **CT212** — rendezvous deadlock: simulating the plan's blocking
  send/receive schedules to fixpoint leaves a wait-for cycle.
* **CT213** — unmatched rendezvous: a node blocks on a peer that has
  already run out of actions (a send nobody receives, or vice versa).
* **CT214** — estimate escapes bounds: the model's throughput figure
  falls outside the interval abstract interpretation's bracket.
* **CT215** — uncovered fault class: an injectable fault class has no
  degraded-mode story under this plan's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, Severity, sort_diagnostics
from ..rules import Finding, Rule, rule, verify_rules
from .bounds import PhaseBound
from .coverage import CoverageEntry
from .ir import CommAction, PlanIR

__all__ = ["VerifyContext", "run_verify", "simulate_rendezvous"]


@dataclass
class VerifyContext:
    """Everything a verify-scope rule may inspect.

    ``estimate_mbps``/``bounds`` and ``coverage`` are optional the
    same way the linter's table/capabilities are: passes that need a
    missing ingredient stay silent.
    """

    ir: PlanIR
    estimate_mbps: Optional[float] = None
    bounds: Tuple[PhaseBound, ...] = ()
    coverage: Tuple[CoverageEntry, ...] = ()
    bounds_rel_tol: float = 1e-9


# -- CT211: resource races ----------------------------------------------------


@rule(
    "CT211",
    Severity.WARNING,
    "concurrent claims on an exclusive resource",
    scope="verify",
)
def ct211_resource_race(ctx: VerifyContext) -> Iterator[Finding]:
    """Mutually unordered IR nodes must claim disjoint exclusive resources.

    The dynamic counterpart is an engine serving two transfers at once
    — which the runtime serializes, silently invalidating the
    schedule's cost model (the paper's engines pipeline one stream,
    Section 3.1).  One finding per contested resource.
    """
    for resource, claimants in ctx.ir.concurrent_claims():
        first, second = claimants[0], claimants[1]
        spans = ""
        if first.span is not None and second.span is not None:
            spans = (
                f" at notation spans [{first.span.start}, {first.span.end})"
                f" and [{second.span.start}, {second.span.end})"
            )
        others = (
            f" (and {len(claimants) - 2} more)" if len(claimants) > 2 else ""
        )
        yield Finding(
            message=(
                f"exclusive resource {resource!r} is claimed by "
                f"{len(claimants)} concurrent units: {first.label} and "
                f"{second.label}{others}{spans}"
            ),
            hint=(
                "order the claimants with a phase barrier or sequential "
                "composition, or move one onto a different engine"
            ),
            span=first.span or second.span,
        )


# -- CT212/CT213: rendezvous matching ----------------------------------------


def simulate_rendezvous(
    ir: PlanIR,
) -> Tuple[Dict[int, int], List[int]]:
    """Run the blocking send/receive schedules to fixpoint.

    A head send on node *a* matches a head receive on node *b* when
    peer and tag agree; both heads then advance.  Matching is
    confluent (each action has exactly one partner), so scanning nodes
    in sorted order reaches the same terminal state as any other
    maximal strategy.  Returns the final head index per node and the
    sorted list of blocked nodes.
    """
    actions = {s.node: s.actions for s in ir.schedules}
    heads = {node: 0 for node in actions}

    def head(node: int) -> Optional[CommAction]:
        index = heads[node]
        if index >= len(actions[node]):
            return None
        return actions[node][index]

    progress = True
    while progress:
        progress = False
        for node in sorted(actions):
            action = head(node)
            if action is None or action.kind != "send":
                continue
            peer = action.peer
            if peer not in actions:
                continue
            partner = head(peer)
            if (
                partner is not None
                and partner.kind == "recv"
                and partner.peer == node
                and partner.tag == action.tag
            ):
                heads[node] += 1
                heads[peer] += 1
                progress = True
    blocked = sorted(
        node for node in actions if heads[node] < len(actions[node])
    )
    return heads, blocked


def _wait_cycles(
    blocked: Sequence[int], waits_on: Dict[int, int]
) -> List[Tuple[int, ...]]:
    """Cycles of the functional wait-for graph, canonically rotated."""
    cycles: List[Tuple[int, ...]] = []
    seen: Set[int] = set()
    for start in blocked:
        if start in seen:
            continue
        trail: List[int] = []
        position: Dict[int, int] = {}
        node = start
        while node in waits_on and node not in seen and node not in position:
            position[node] = len(trail)
            trail.append(node)
            node = waits_on[node]
        if node in position:  # fresh cycle
            cycle = trail[position[node]:]
            pivot = cycle.index(min(cycle))
            cycles.append(tuple(cycle[pivot:] + cycle[:pivot]))
        seen.update(trail)
    return cycles


@rule(
    "CT212",
    Severity.WARNING,
    "send/receive deadlock cycle",
    scope="verify",
)
def ct212_deadlock_cycle(ctx: VerifyContext) -> Iterator[Finding]:
    """Blocking rendezvous schedules must not form a wait-for cycle.

    The classic case: every node of a cyclic-shift posts its send
    before its receive (PVM-style blocking unbuffered sends), so all
    sends wait on receives that are queued behind other sends —
    forever.  One finding per cycle, naming the chain.
    """
    if not ctx.ir.schedules:
        return
    heads, blocked = simulate_rendezvous(ctx.ir)
    if not blocked:
        return
    actions = {s.node: s.actions for s in ctx.ir.schedules}
    blocked_set = set(blocked)
    waits_on = {
        node: actions[node][heads[node]].peer
        for node in blocked
        if actions[node][heads[node]].peer in blocked_set
    }
    for cycle in _wait_cycles(blocked, waits_on):
        chain = " -> ".join(f"node {node}" for node in cycle)
        first = cycle[0]
        head_action = actions[first][heads[first]]
        yield Finding(
            message=(
                f"rendezvous deadlock: {chain} -> node {cycle[0]} "
                f"(node {first} blocks on '{head_action.describe()}')"
            ),
            hint=(
                "interleave sends and receives in one global phase order, "
                "or buffer sends so they complete without a rendezvous"
            ),
        )


@rule(
    "CT213",
    Severity.WARNING,
    "unmatched send or receive",
    scope="verify",
)
def ct213_unmatched_rendezvous(ctx: VerifyContext) -> Iterator[Finding]:
    """A blocked node whose peer has finished will never be served.

    Distinct from CT212: no cycle, just an action with no partner —
    a send into the void (e.g. a self-message that produced no
    receive) or a receive nobody posts the matching send for.
    """
    if not ctx.ir.schedules:
        return
    heads, blocked = simulate_rendezvous(ctx.ir)
    if not blocked:
        return
    actions = {s.node: s.actions for s in ctx.ir.schedules}
    blocked_set = set(blocked)
    for node in blocked:
        action = actions[node][heads[node]]
        if action.peer in blocked_set:
            continue  # waiting on another blocked node: CT212's case
        yield Finding(
            message=(
                f"node {node} blocks on '{action.describe()}' but node "
                f"{action.peer} has no matching "
                f"{'receive' if action.kind == 'send' else 'send'} left"
            ),
            hint=(
                "every send needs exactly one matching receive with the "
                "same peer and tag; check the plan for dropped or "
                "duplicated operations"
            ),
        )


# -- CT214: interval bounds ---------------------------------------------------


@rule(
    "CT214",
    Severity.WARNING,
    "model estimate escapes the static throughput bracket",
    scope="verify",
)
def ct214_estimate_outside_bounds(ctx: VerifyContext) -> Iterator[Finding]:
    """``evaluate()`` must land inside the abstract interpretation.

    The bracket is sound by construction (the upper end ignores every
    constraint, the lower end applies them all), so an escape means
    the evaluator and the composition rules have drifted apart — the
    static mirror of the runtime's phase-sum invariant.
    """
    if ctx.estimate_mbps is None:
        return
    total = next(
        (row for row in ctx.bounds if row.phase == "total"), None
    )
    if total is None:
        return
    tol = ctx.bounds_rel_tol
    lo = total.mbps_lo * (1.0 - tol)
    hi = total.mbps_hi * (1.0 + tol)
    if lo <= ctx.estimate_mbps <= hi:
        return
    yield Finding(
        message=(
            f"model estimate {ctx.estimate_mbps:.3f} MB/s escapes the "
            f"static bracket [{total.mbps_lo:.3f}, {total.mbps_hi:.3f}] "
            "MB/s"
        ),
        hint=(
            "the evaluator and the interval interpretation disagree on "
            "the composition rules; one of them has a bug"
        ),
    )


# -- CT215: fault coverage ----------------------------------------------------


@rule(
    "CT215",
    Severity.WARNING,
    "fault class without a degraded mode",
    scope="verify",
)
def ct215_uncovered_fault_class(ctx: VerifyContext) -> Iterator[Finding]:
    """Every injectable fault class needs a survival story.

    An uncovered class means injecting that fault against this plan
    configuration aborts the transfer instead of degrading it.
    """
    for entry in ctx.coverage:
        if entry.covered:
            continue
        yield Finding(
            message=(
                f"fault class {entry.fault_class} is not covered by a "
                f"degraded mode: {entry.reason}"
            ),
            hint=(
                "register a fallback (see repro.analysis.verify.coverage) "
                "or reconfigure the plan so the existing one applies"
            ),
        )


# -- runner -------------------------------------------------------------------


def run_verify(
    ctx: VerifyContext,
    only: Optional[Sequence[str]] = None,
) -> Tuple[Diagnostic, ...]:
    """Run every verify-scope pass over one lowered plan.

    Args:
        ctx: The lowered plan plus whatever optional ingredients
            (estimate, bounds, coverage) the caller could supply.
        only: Restrict to these rule ids (unknown ids are ignored,
            matching the linter's ``--rules`` behaviour).

    Returns:
        Deterministically ordered diagnostics, worst first.
    """
    selected: List[Rule] = sorted(
        verify_rules(), key=lambda r: r.rule_id
    )
    if only is not None:
        wanted = set(only)
        selected = [r for r in selected if r.rule_id in wanted]
    diagnostics: List[Diagnostic] = []
    for pass_rule in selected:
        for finding in pass_rule.check(ctx):
            diagnostics.append(
                Diagnostic(
                    rule=pass_rule.rule_id,
                    severity=pass_rule.severity,
                    message=finding.message,
                    notation=ctx.ir.notation,
                    span=finding.span,
                    hint=finding.hint,
                )
            )
    return tuple(sort_diagnostics(diagnostics))
