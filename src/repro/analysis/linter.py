"""The linter entry points: analyze expressions and compiler plans.

:func:`analyze` runs every registered expression rule over one
composition expression and returns sorted
:class:`~repro.analysis.diagnostics.Diagnostic` objects.  The caller
supplies whatever machine context it has — a calibration table enables
the calibration rules, capabilities enable the strategy-advice rules,
constraints inform the shared-resource rule — and rules that lack an
ingredient stay silent rather than guess.

:func:`analyze_plan` does the same for a compiler-emitted
:class:`~repro.compiler.commgen.CommPlan`: the plan-scope rules check
the operation list itself, and, when a model is supplied, each distinct
operation shape is built in the model's preferred style and run through
the expression rules too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..core.calibration import ThroughputTable
from ..core.composition import Expr
from ..core.constraints import ResourceConstraint
from ..core.errors import CompositionError, ModelError
from ..core.operations import CommCapabilities
from .diagnostics import Diagnostic, sort_diagnostics
from .rules import RULES, AnalysisContext, PlanContext, Rule
from .tree import compute_spans

if TYPE_CHECKING:
    from ..compiler.commgen import CommPlan
    from ..core.model import CopyTransferModel

__all__ = ["analyze", "analyze_plan", "select_rules"]


def select_rules(
    only: Optional[Sequence[str]] = None, scope: Optional[str] = None
) -> List[Rule]:
    """Resolve a rule-id selection (``None`` means every rule).

    Raises :class:`ModelError` for unknown ids so typos in ``--rules``
    fail loudly instead of silently linting nothing.
    """
    if only is None:
        selected = list(RULES.values())
    else:
        unknown = sorted(set(only) - set(RULES))
        if unknown:
            raise ModelError(
                f"unknown lint rule ids {unknown}; known rules: {sorted(RULES)}"
            )
        selected = [RULES[rule_id] for rule_id in only]
    if scope is not None:
        selected = [r for r in selected if r.scope == scope]
    return selected


def analyze(
    expr: Expr,
    table: Optional[ThroughputTable] = None,
    capabilities: Optional[CommCapabilities] = None,
    constraints: Sequence[ResourceConstraint] = (),
    rules: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Statically check one composition expression.

    Args:
        expr: The expression to analyze.
        table: Calibration table, enabling the calibration-coverage and
            index-charge rules and the strategy comparison.
        capabilities: Machine capabilities, enabling the
            packing-vs-chained advice.
        constraints: Standing resource constraints in scope (used to
            decide whether shared capacity resources are covered).
        rules: Restrict to these rule ids (default: all expression rules).

    Returns:
        Diagnostics sorted by severity (errors first), then position.
    """
    notation = expr.notation()
    spans = compute_spans(expr)
    ctx = AnalysisContext(
        expr=expr,
        notation=notation,
        spans=spans,
        table=table,
        capabilities=capabilities,
        constraints=tuple(constraints),
    )
    diagnostics: List[Diagnostic] = []
    for rule in select_rules(rules, scope="expr"):
        for finding in rule.check(ctx):
            span = spans.get(finding.path) if finding.path is not None else None
            diagnostics.append(
                Diagnostic(
                    rule=rule.rule_id,
                    severity=rule.severity,
                    message=finding.message,
                    notation=notation,
                    span=span,
                    hint=finding.hint,
                )
            )
    return sort_diagnostics(diagnostics)


def analyze_plan(
    plan: "CommPlan",
    model: Optional["CopyTransferModel"] = None,
    style: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Diagnostic]:
    """Statically check a compiler-emitted communication plan.

    Plan-scope rules (``CT4xx``) inspect the operation list directly.
    When ``model`` is given, every distinct ``xQy`` shape in the plan
    is additionally built in ``style`` (default: the model's preferred
    style per shape) and run through the expression rules, so a plan
    inherits calibration and strategy findings for the operations it
    would actually execute.
    """
    ctx = PlanContext(
        plan=plan,
        model=model,
        style=style,
        machine=model.name if model is not None else None,
        capabilities=model.capabilities if model is not None else None,
    )
    diagnostics: List[Diagnostic] = []
    for rule in select_rules(rules, scope="plan"):
        for finding in rule.check(ctx):
            diagnostics.append(
                Diagnostic(
                    rule=rule.rule_id,
                    severity=rule.severity,
                    message=finding.message,
                    hint=finding.hint,
                )
            )

    if model is not None:
        seen_shapes: Set[Tuple[str, str]] = set()
        seen_keys: Set[Tuple[str, str, str]] = set()
        for op in plan.ops:
            shape = (op.x.subscript, op.y.subscript)
            if shape in seen_shapes:
                continue
            seen_shapes.add(shape)
            styles = [style] if style is not None else ["buffer-packing", "chained"]
            for candidate in styles:
                try:
                    expr = model.build(op.x, op.y, candidate)
                except CompositionError:
                    continue  # CT403 reports infeasible shapes
                for diagnostic in analyze(
                    expr,
                    table=model.table,
                    capabilities=model.capabilities,
                    constraints=model.constraints,
                    rules=rules,
                ):
                    key = (diagnostic.rule, diagnostic.notation, diagnostic.message)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    diagnostics.append(diagnostic)
    return sort_diagnostics(diagnostics)
