"""Semantic plan verification (the analysis tier above the linter).

Where the linter (:mod:`repro.analysis.linter`) checks composition
*syntax* — pattern matching, resource disjointness of explicit ``Par``
nodes — this package checks plan *semantics*: it lowers expressions,
communication plans and collective steps into a common plan IR
(:mod:`~repro.analysis.verify.ir`) and runs dataflow passes over it
(:mod:`~repro.analysis.verify.passes`):

* **CT211** resource races between concurrent units,
* **CT212/CT213** rendezvous deadlocks and unmatched sends/receives,
* **CT214** an interval abstract interpretation whose static bounds
  must bracket the model's concrete estimate,
* **CT215** fault-class coverage against :mod:`repro.faults.spec`.

Entry points: :func:`verify_expr`, :func:`verify_plan`,
:func:`verify_step` (see :mod:`~repro.analysis.verify.api`), and the
``python -m repro verify`` CLI.
"""

from .api import (
    DEFAULT_NBYTES,
    VerifyResult,
    results_payload,
    verify_expr,
    verify_plan,
    verify_step,
)
from .bounds import Interval, PhaseBound, phase_bounds, pipeline_bounds, rate_interval
from .coverage import (
    FAULT_COVERAGE,
    CoverageContext,
    CoverageEntry,
    coverage_check,
    fault_class_names,
    fault_coverage,
)
from .ir import (
    CommAction,
    IREdge,
    IRNode,
    NodeSchedule,
    PlanIR,
    lower_expr,
    lower_plan,
    phase_partition,
)
from .passes import VerifyContext, run_verify, simulate_rendezvous
from .report import SCHEMA, validate_verify_report

__all__ = [
    "CommAction",
    "CoverageContext",
    "CoverageEntry",
    "DEFAULT_NBYTES",
    "FAULT_COVERAGE",
    "IREdge",
    "IRNode",
    "Interval",
    "NodeSchedule",
    "PhaseBound",
    "PlanIR",
    "SCHEMA",
    "VerifyContext",
    "VerifyResult",
    "coverage_check",
    "fault_class_names",
    "fault_coverage",
    "lower_expr",
    "lower_plan",
    "phase_bounds",
    "phase_partition",
    "pipeline_bounds",
    "rate_interval",
    "results_payload",
    "run_verify",
    "simulate_rendezvous",
    "verify_expr",
    "verify_plan",
    "verify_step",
]
