"""CT214 interval abstract interpretation tests.

The soundness contract under test: the static bracket must contain the
concrete figure `evaluate()` computes, for every shape the repo models.
"""

import pytest

from repro.analysis.verify.bounds import Interval, phase_bounds
from repro.core.errors import CompositionError, ModelError
from repro.core.operations import OperationStyle
from repro.core.patterns import AccessPattern
from repro.core.throughput import evaluate
from repro.machines import paragon, t3d
from repro.sweep import GRID_PAIRS

MACHINES = {"t3d": t3d, "paragon": paragon}
STYLES = [style.value for style in OperationStyle]


class TestInterval:
    def test_degenerate_interval_is_rejected(self):
        with pytest.raises(ModelError):
            Interval(lo=2.0, hi=1.0)

    def test_contains_uses_relative_slack(self):
        interval = Interval(lo=10.0, hi=20.0)
        assert interval.contains(10.0)
        assert interval.contains(20.0 * (1 + 1e-12))
        assert not interval.contains(20.1)
        assert not interval.contains(9.9)


class TestExpressionBounds:
    @pytest.mark.parametrize("machine_key", sorted(MACHINES))
    @pytest.mark.parametrize("style", STYLES)
    @pytest.mark.parametrize("x,y", GRID_PAIRS)
    def test_total_row_brackets_the_evaluator(
        self, machine_key, style, x, y
    ):
        model = MACHINES[machine_key]().model()
        try:
            expr = model.build(
                AccessPattern.parse(x), AccessPattern.parse(y), style
            )
        except CompositionError:
            pytest.skip(f"{x}Q{y} has no {style} form on {machine_key}")
        rows = phase_bounds(expr, model.table, 131072, model.constraints)
        assert rows, f"no bounds for {x}Q{y} {style} on {machine_key}"
        (total,) = [row for row in rows if row.phase == "total"]
        concrete = evaluate(
            expr, model.table, constraints=model.constraints
        ).mbps
        assert Interval(total.mbps_lo, total.mbps_hi).contains(concrete)
        assert total.lo_ns <= total.hi_ns

    def test_per_phase_rows_appear_only_for_seq_roots(self):
        model = t3d().model()
        expr = model.build(
            AccessPattern.parse("1"),
            AccessPattern.parse("64"),
            "buffer-packing",
        )
        rows = phase_bounds(expr, model.table, 131072, model.constraints)
        phases = [row.phase for row in rows]
        assert phases[-1] == "total"
        assert len(phases) > 1  # packing has pack/transfer phases

    def test_unconstrained_upper_end_dominates_lower(self):
        model = t3d().model()
        expr = model.build(
            AccessPattern.parse("1"), AccessPattern.parse("64"), "chained"
        )
        rows = phase_bounds(expr, model.table, 131072, model.constraints)
        for row in rows:
            assert row.mbps_lo <= row.mbps_hi

