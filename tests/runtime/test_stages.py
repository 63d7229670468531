"""Tests for the chunked stage pipeline (repro.runtime.stages)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime.stages import Stage, StagePipeline, _chunk_sizes


def run(stages, nbytes=1 << 20, chunk=8192):
    return StagePipeline(stages).run(nbytes, chunk_bytes=chunk)


class TestSingleStage:
    def test_rate_recovered(self):
        result = run([Stage("only", 100.0, "cpu")])
        assert result.mbps == pytest.approx(100.0, rel=0.01)

    def test_chunk_overhead_slows(self):
        clean = run([Stage("s", 100.0, "cpu")])
        noisy = run([Stage("s", 100.0, "cpu", chunk_overhead_ns=10_000.0)])
        assert noisy.mbps < clean.mbps

    def test_startup_charged_once(self):
        with_startup = run([Stage("s", 100.0, "cpu", startup_ns=1e6)])
        without = run([Stage("s", 100.0, "cpu")])
        assert with_startup.ns == pytest.approx(without.ns + 1e6)


class TestParallelStages:
    def test_disjoint_resources_pipeline_to_min(self):
        """The model's parallel (min) rule emerges with many chunks."""
        stages = [
            Stage("send", 120.0, "cpu"),
            Stage("net", 60.0, "net"),
            Stage("recv", 150.0, "deposit"),
        ]
        result = run(stages)
        assert result.mbps == pytest.approx(60.0, rel=0.05)

    def test_bottleneck_identified(self):
        stages = [Stage("send", 120.0, "cpu"), Stage("net", 60.0, "net")]
        assert run(stages).bottleneck() == "net"


class TestSharedResource:
    def test_shared_resource_harmonic(self):
        """The model's sequential (harmonic) rule: same resource."""
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 50.0, "cpu")]
        result = run(stages)
        expected = 1.0 / (1 / 100.0 + 1 / 50.0)
        assert result.mbps == pytest.approx(expected, rel=0.05)

    def test_mixed_composition(self):
        """cpu-shared pair in parallel with a slower background stage."""
        stages = [
            Stage("a", 100.0, "cpu"),
            Stage("b", 100.0, "cpu"),
            Stage("net", 40.0, "net"),
        ]
        result = run(stages)
        assert result.mbps == pytest.approx(40.0, rel=0.05)


class TestGranularity:
    def test_single_chunk_serializes_everything(self):
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 100.0, "net")]
        nbytes = 1 << 20
        whole = StagePipeline(stages).run(nbytes, chunk_bytes=nbytes)
        fine = StagePipeline(stages).run(nbytes, chunk_bytes=4096)
        # Store-and-forward: both stages' full time; pipelined: ~max.
        assert whole.mbps == pytest.approx(50.0, rel=0.02)
        assert fine.mbps > 90.0

    def test_tail_chunk_handled(self):
        result = run([Stage("s", 100.0, "cpu")], nbytes=10_000, chunk=4096)
        assert result.nbytes == 10_000
        assert result.mbps == pytest.approx(100.0, rel=0.05)

    def test_busy_accounting_sums(self):
        stages = [Stage("a", 100.0, "cpu"), Stage("b", 50.0, "net")]
        result = run(stages)
        assert result.stage_busy_ns["b"] == pytest.approx(
            2 * result.stage_busy_ns["a"], rel=0.01
        )


class TestDuplicateNames:
    """Regression: busy/startup accounting was keyed by stage *name*,
    so two stages sharing a name merged their busy accounts and the
    second stage's startup was never charged."""

    def test_duplicate_names_keep_separate_accounts(self):
        stages = [Stage("copy", 100.0, "cpu"), Stage("copy", 50.0, "net")]
        result = run(stages)
        assert set(result.stage_busy_ns) == {"copy#0", "copy#1"}
        assert result.stage_busy_ns["copy#1"] == pytest.approx(
            2 * result.stage_busy_ns["copy#0"], rel=0.01
        )

    def test_duplicate_names_match_renamed_pipeline(self):
        dup = run([
            Stage("copy", 100.0, "cpu", startup_ns=1e6),
            Stage("copy", 50.0, "net", startup_ns=2e6),
        ])
        uniq = run([
            Stage("copy-a", 100.0, "cpu", startup_ns=1e6),
            Stage("copy-b", 50.0, "net", startup_ns=2e6),
        ])
        assert dup.ns == uniq.ns
        assert dup.mbps == uniq.mbps

    def test_both_startups_charged(self):
        base = run([Stage("s", 100.0, "cpu"), Stage("s", 100.0, "net")])
        both = run([
            Stage("s", 100.0, "cpu", startup_ns=1e6),
            Stage("s", 100.0, "net", startup_ns=1e6),
        ])
        # Disjoint resources at equal rates: the startups land one
        # after the other ahead of the stream, so both must show up.
        assert both.ns == pytest.approx(base.ns + 2e6)

    def test_unique_names_unmangled(self):
        result = run([Stage("a", 100.0, "cpu"), Stage("b", 50.0, "net")])
        assert set(result.stage_busy_ns) == {"a", "b"}


class TestValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([])

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            StagePipeline([Stage("s", 0.0, "cpu")])

    def test_nonpositive_sizes_rejected(self):
        pipeline = StagePipeline([Stage("s", 10.0, "cpu")])
        with pytest.raises(ValueError):
            pipeline.run(0)
        with pytest.raises(ValueError):
            pipeline.run(100, chunk_bytes=0)


@st.composite
def pipelines(draw):
    """Random stage lists: shared and distinct resources, duplicate
    names, per-chunk overheads and startups."""
    count = draw(st.integers(min_value=1, max_value=5))
    return [
        Stage(
            name=draw(st.sampled_from(["gather", "send", "net", "recv"])),
            rate_mbps=draw(st.floats(min_value=1.0, max_value=2000.0)),
            resource=draw(st.sampled_from(["cpu", "net", "deposit"])),
            chunk_overhead_ns=draw(st.floats(min_value=0.0, max_value=1e4)),
            startup_ns=draw(st.floats(min_value=0.0, max_value=1e6)),
        )
        for __ in range(count)
    ]


class TestMemo:
    """The untraced path answers from a process-wide memo; every hit
    must equal the recurrence run from scratch, bit for bit."""

    @given(
        stages=pipelines(),
        nbytes=st.integers(min_value=1, max_value=1 << 18),
        chunk=st.integers(min_value=1, max_value=1 << 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_equals_fresh_recurrence(self, stages, nbytes, chunk):
        pipeline = StagePipeline(stages)
        pipeline.run(nbytes, chunk_bytes=chunk)  # fill
        hit = StagePipeline(list(stages)).run(nbytes, chunk_bytes=chunk)

        busy = [0.0] * len(stages)
        finish = StagePipeline(stages)._run_untraced(
            _chunk_sizes(nbytes, chunk), busy
        )
        assert hit.ns == finish
        assert hit.nbytes == nbytes
        assert hit.stage_busy_ns == dict(zip(pipeline.labels, busy))

    def test_mutating_a_result_cannot_change_a_later_hit(self):
        stages = [Stage("send", 100.0, "cpu"), Stage("net", 50.0, "net")]
        first = run(stages)
        expected = dict(first.stage_busy_ns)
        first.stage_busy_ns["send"] = -1.0
        first.stage_busy_ns["bogus"] = 0.0
        again = run(stages)
        assert again.stage_busy_ns == expected
        assert again.stage_busy_ns is not first.stage_busy_ns
