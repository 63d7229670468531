"""Structured diagnostics emitted by the copy-transfer plan linter.

A :class:`Diagnostic` is one finding of the static analyzer: a rule id
(``CT101``), a severity, a human-readable message, an optional source
span over the expression's ``notation()`` string, and an optional
fix-it hint.  Diagnostics are plain immutable data with no dependency
on the rest of the package, so any layer (core model, runtime engine,
CLI, CI tooling) can carry them without import cycles.

Severity bands mirror the rule-id bands:

* ``CT1xx`` — **error**: the composition violates the model's
  concatenation rules (Section 3.3); evaluating it is meaningless.
* ``CT2xx`` — **warning**: the composition is legal but the model is
  being misapplied (missing calibration, uncovered shared resource,
  wrong network framing) and the estimate will be unreliable.
* ``CT3xx`` — **advice**: the composition is legal and well-modelled,
  but the model predicts a faster alternative exists.
* ``CT4xx`` — **warning**, plan scope: a compiler-emitted
  communication plan contains a degenerate operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Severity",
    "Span",
    "Diagnostic",
    "has_errors",
    "max_severity",
    "render_report",
    "sort_diagnostics",
]


class Severity(enum.Enum):
    """How serious a finding is; orderable (``ERROR`` is highest)."""

    ADVICE = "advice"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"advice": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __repr__(self) -> str:
        return f"Severity.{self.name}"


@dataclass(frozen=True)
class Span:
    """Character offsets ``[start, end)`` into a notation string."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def underline(self, text: str) -> str:
        """A caret line pointing at this span within ``text``."""
        width = max(1, min(self.end, len(text)) - self.start)
        return " " * self.start + "^" * width


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer.

    Attributes:
        rule: Rule identifier, e.g. ``"CT101"``.
        severity: Error / warning / advice.
        message: Human-readable description naming the offending parts.
        notation: The analyzed expression in paper notation (empty for
            plan-scope diagnostics, which identify the operation in the
            message instead).
        span: Where in ``notation`` the finding anchors, when known.
        hint: A fix-it suggestion, when the rule has one.
    """

    rule: str
    severity: Severity
    message: str
    notation: str = ""
    span: Optional[Span] = None
    hint: Optional[str] = None

    def render(self) -> str:
        """Multi-line report: header, source excerpt, caret, hint."""
        lines = [f"{self.rule} {self.severity.value}: {self.message}"]
        if self.notation:
            lines.append(f"    {self.notation}")
            if self.span is not None:
                lines.append(f"    {self.span.underline(self.notation)}")
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly representation for ``--json`` / CI consumers."""
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.notation:
            payload["notation"] = self.notation
        if self.span is not None:
            payload["span"] = [self.span.start, self.span.end]
        if self.hint:
            payload["hint"] = self.hint
        return payload


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Canonical finding order: severity, then span, rule and message."""
    return sorted(
        diagnostics,
        key=lambda d: (
            -d.severity.rank,
            d.span.start if d.span else -1,
            d.rule,
            d.message,
        ),
    )


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any diagnostic is error severity."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """The highest severity present, or ``None`` for a clean result."""
    best: Optional[Severity] = None
    for diagnostic in diagnostics:
        if best is None or best < diagnostic.severity:
            best = diagnostic.severity
    return best


def render_report(diagnostics: Iterable[Diagnostic]) -> str:
    """Render a list of diagnostics plus a one-line summary."""
    items: List[Diagnostic] = sorted(
        diagnostics,
        key=lambda d: (-d.severity.rank, d.rule, d.span.start if d.span else -1),
    )
    if not items:
        return "no findings"
    counts: Dict[str, int] = {}
    for diagnostic in items:
        key = diagnostic.severity.value
        counts[key] = counts.get(key, 0) + 1
    summary = ", ".join(
        f"{counts[name]} {name}"
        + ("s" if counts[name] != 1 and name != "advice" else "")
        for name in ("error", "warning", "advice")
        if name in counts
    )
    blocks: Tuple[str, ...] = tuple(d.render() for d in items)
    return "\n".join(blocks + (summary,))
