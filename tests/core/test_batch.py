"""Unit coverage for the batched query engine (repro.core.batch).

The bit-identity *property* lives in
``tests/properties/test_batch_parity.py``; these tests pin the unit
contracts — shape grouping, scalar-ordered fallback, duplicate
memoization, and the vectorized pipeline recurrence against
:class:`repro.runtime.stages.StagePipeline`.
"""

import numpy as np
import pytest

from repro.core.batch import (
    BATCH_VERSION,
    estimate_many,
    evaluate_many,
    expr_shape,
    solve_pipeline_group,
)
from repro.core.composition import Par, Seq, Term
from repro.core.errors import ModelError
from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, INDEXED, strided
from repro.core.throughput import evaluate
from repro.core.transfers import copy as copy_transfer


@pytest.fixture
def model(t3d_machine):
    return t3d_machine.model(source="paper")


def _grid_queries():
    pairs = [
        (CONTIGUOUS, CONTIGUOUS),
        (CONTIGUOUS, strided(64)),
        (strided(64), CONTIGUOUS),
        (CONTIGUOUS, INDEXED),
        (INDEXED, CONTIGUOUS),
        (INDEXED, INDEXED),
    ]
    return [
        (x, y, style) for x, y in pairs for style in OperationStyle
    ]


class TestExprShape:
    def test_terms_share_a_shape(self):
        a = Term(copy_transfer(CONTIGUOUS, CONTIGUOUS))
        b = Term(copy_transfer(strided(8), INDEXED))
        assert expr_shape(a) == expr_shape(b) == ("T",)

    def test_structure_distinguishes_par_from_seq(self):
        t = Term(copy_transfer(CONTIGUOUS, CONTIGUOUS))
        assert expr_shape(Par((t, t))) != expr_shape(Seq((t, t)))

    def test_leaf_count_participates(self):
        t = Term(copy_transfer(CONTIGUOUS, CONTIGUOUS))
        assert expr_shape(Seq((t, t))) != expr_shape(Seq((t, t, t)))


class TestEvaluateMany:
    def test_matches_scalar_loop_bitwise(self, model):
        exprs = [
            model.build(x, y, style) for x, y, style in _grid_queries()
        ]
        batched = evaluate_many(
            exprs, model.table, constraints=tuple(model.constraints)
        )
        scalar = [
            evaluate(
                expr, model.table, constraints=tuple(model.constraints)
            ).mbps
            for expr in exprs
        ]
        assert batched == scalar  # == on floats: bitwise for finite values

    def test_first_error_matches_the_loop(self, model):
        good = model.build(CONTIGUOUS, strided(64), OperationStyle.CHAINED)
        # A transfer with no calibration entry is a scalar-error lane.
        bad = Term(copy_transfer(INDEXED, INDEXED))
        with pytest.raises(ModelError) as batch_err:
            evaluate_many([good, bad, bad], model.table)
        with pytest.raises(ModelError) as scalar_err:
            for expr in (good, bad, bad):
                evaluate(expr, model.table)
        assert str(batch_err.value) == str(scalar_err.value)


class TestEstimateMany:
    def test_matches_scalar_estimates(self, model):
        queries = _grid_queries()
        batched = estimate_many(model, queries)
        scalar = [
            model.estimate(x, y, style).mbps for x, y, style in queries
        ]
        assert batched == scalar

    def test_duplicates_are_built_once(self, model, monkeypatch):
        calls = []
        original = model.build

        def counting(x, y, style):
            calls.append((x, y, style))
            return original(x, y, style)

        monkeypatch.setattr(model, "build", counting)
        query = (CONTIGUOUS, strided(64), OperationStyle.CHAINED)
        values = estimate_many(model, [query] * 5)
        assert len(set(values)) == 1
        assert len(calls) == 1


class TestSolvePipelineGroup:
    def test_matches_stage_pipeline_bitwise(self):
        from repro.runtime.stages import Stage, StagePipeline

        nbytes = 100_000
        lane_rates = [(120.0, 80.0, 300.0), (45.0, 90.0, 60.0)]
        stages_per_lane = []
        for rates in lane_rates:
            stages_per_lane.append([
                Stage("load", rates[0], "memory",
                      chunk_overhead_ns=25.0, startup_ns=400.0),
                Stage("wire", rates[1], "network",
                      chunk_overhead_ns=10.0, startup_ns=0.0),
                Stage("store", rates[2], "memory",
                      chunk_overhead_ns=25.0, startup_ns=100.0),
            ])
        chunk_bytes = 512 * 8
        scalar = [
            StagePipeline(stages).run(nbytes, chunk_bytes=chunk_bytes).ns
            for stages in stages_per_lane
        ]
        structure = (chunk_bytes, (0, 1, 0))  # memory shared, slot 0
        rates = np.array(
            [[row[i] for row in lane_rates] for i in range(3)],
            dtype=np.float64,
        )
        overheads = np.array(
            [[25.0] * 2, [10.0] * 2, [25.0] * 2], dtype=np.float64
        )
        startups = np.array(
            [[400.0] * 2, [0.0] * 2, [100.0] * 2], dtype=np.float64
        )
        batched = solve_pipeline_group(
            nbytes, [structure], [rates], [overheads], [startups]
        )
        assert list(batched) == scalar

    def test_phase_totals_accumulate_in_order(self):
        nbytes = 4096
        structure = (4096, (0,))
        ones = np.array([[100.0]], dtype=np.float64)
        zeros = np.zeros((1, 1), dtype=np.float64)
        one_phase = solve_pipeline_group(
            nbytes, [structure], [ones], [zeros], [zeros]
        )
        two_phases = solve_pipeline_group(
            nbytes,
            [structure, structure],
            [ones, ones],
            [zeros, zeros],
            [zeros, zeros],
        )
        assert two_phases[0] == one_phase[0] + one_phase[0]


def test_batch_version_is_a_string():
    assert isinstance(BATCH_VERSION, str) and BATCH_VERSION
