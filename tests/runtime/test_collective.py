"""Tests for collective communication steps (repro.runtime.collective)."""

import pytest

from repro.core.operations import OperationStyle
from repro.core.patterns import CONTIGUOUS, strided
from repro.netsim.patterns import all_to_all, cyclic_shift
from repro.runtime.collective import CommunicationStep, steady_state_ns
from repro.runtime.engine import CommRuntime


@pytest.fixture(scope="module")
def runtime(t3d_machine):
    return CommRuntime(t3d_machine)


def step(runtime, flows, nbytes=8192, **kwargs):
    return CommunicationStep(
        runtime, flows, CONTIGUOUS, strided(64), nbytes, **kwargs
    )


class TestConstruction:
    def test_empty_flows_rejected(self, runtime):
        with pytest.raises(ValueError):
            step(runtime, [])

    def test_bad_schedule_slack_rejected(self, runtime):
        with pytest.raises(ValueError):
            step(runtime, cyclic_shift(64), schedule_slack=0.5)


class TestCongestion:
    def test_scheduled_uses_port_floor(self, runtime):
        result = step(runtime, all_to_all(64), scheduled=True).run()
        assert result.congestion == 2.0  # T3D port sharing

    def test_schedule_slack_scales(self, runtime):
        result = step(
            runtime, all_to_all(64), scheduled=True, schedule_slack=1.5
        ).run()
        assert result.congestion == 3.0

    def test_unscheduled_uses_link_loads(self, runtime):
        scheduled = step(runtime, all_to_all(64), scheduled=True).run()
        raw = step(runtime, all_to_all(64), scheduled=False).run()
        assert raw.congestion > scheduled.congestion
        assert raw.per_node_mbps < scheduled.per_node_mbps


class TestStepAccounting:
    def test_messages_per_node(self, runtime):
        result = step(runtime, all_to_all(8)).run()
        assert result.messages_per_node == 7
        shift = step(runtime, cyclic_shift(8)).run()
        assert shift.messages_per_node == 1

    def test_bytes_per_node(self, runtime):
        result = step(runtime, all_to_all(8), nbytes=4096).run()
        assert result.bytes_per_node == 7 * 4096

    def test_throughput_consistent(self, runtime):
        result = step(runtime, all_to_all(8)).run()
        assert result.per_node_mbps == pytest.approx(
            result.bytes_per_node / result.step_ns * 1000.0
        )

    def test_many_messages_approach_steady_state(self, runtime):
        few = step(runtime, all_to_all(4)).run()
        many = step(runtime, all_to_all(64)).run()
        # Pipelining across messages: more messages amortize the fill.
        assert many.per_node_mbps >= few.per_node_mbps

    def test_sync_cost_slows_step(self, runtime):
        cheap = step(runtime, all_to_all(16), sync_per_message_ns=0.0).run()
        costly = step(
            runtime, all_to_all(16), sync_per_message_ns=100_000.0
        ).run()
        assert cheap.per_node_mbps > costly.per_node_mbps

    def test_styles_ranked(self, runtime):
        packing = step(runtime, all_to_all(16)).run(OperationStyle.BUFFER_PACKING)
        chained = step(runtime, all_to_all(16)).run(OperationStyle.CHAINED)
        assert chained.per_node_mbps > packing.per_node_mbps


class TestFanIn:
    """Regression: message slots must count receives, not just sends."""

    def test_fan_in_counts_receiver_load(self, runtime):
        # 7 senders, one receiver.  Each node sends at most one message,
        # but node 0 receives seven — it serializes seven message slots.
        flows = [(src, 0) for src in range(1, 8)]
        result = step(runtime, flows).run()
        assert result.messages_per_node == 7

    def test_fan_out_symmetric(self, runtime):
        flows = [(0, dst) for dst in range(1, 8)]
        result = step(runtime, flows).run()
        assert result.messages_per_node == 7

    def test_fan_in_slower_than_pairwise(self, runtime):
        pairwise = step(runtime, cyclic_shift(8)).run()
        fan_in = step(runtime, [(src, 0) for src in range(1, 8)]).run()
        assert fan_in.step_ns > pairwise.step_ns


class TestSteadyStateFallback:
    """Regression: ``max([cpu] + list(busy) or [ns])`` parenthesized as
    ``(cpu + busy) or ns``, leaving the fallback dead and letting an
    all-zero busy profile report a 0 ns per-message bottleneck."""

    def _sample(self, runtime, busy):
        from repro.runtime.engine import MeasuredTransfer

        return MeasuredTransfer(
            mbps=100.0,
            ns=50_000.0,
            nbytes=8192,
            style=OperationStyle.CHAINED,
            library="test",
            congestion=1.0,
            phase_ns=(("chained", 50_000.0),),
            resource_busy_ns=busy,
        )

    SYNC_NS = 20_000.0

    def _steady(self, runtime, sample):
        return steady_state_ns(
            sample,
            sample.nbytes,
            runtime.machine.quirks.runtime_efficiency,
            self.SYNC_NS,
        )

    def test_zero_busy_falls_back_to_end_to_end(self, runtime):
        sample = self._sample(runtime, busy=(("network", 0.0),))
        efficiency = runtime.machine.quirks.runtime_efficiency
        assert self._steady(runtime, sample) == pytest.approx(
            sample.ns / efficiency + self.SYNC_NS
        )

    def test_empty_busy_falls_back_too(self, runtime):
        sample = self._sample(runtime, busy=())
        assert self._steady(runtime, sample) > self.SYNC_NS

    def test_nonzero_busy_still_used(self, runtime):
        sample = self._sample(
            runtime,
            busy=(("network", 30_000.0), ("sender_cpu", 10_000.0)),
        )
        efficiency = runtime.machine.quirks.runtime_efficiency
        assert self._steady(runtime, sample) == pytest.approx(
            30_000.0 / efficiency + self.SYNC_NS
        )

    def test_size_scaling_matches_the_plan_step(self, runtime):
        """One helper serves both executors: a plan step's message of
        half the sampled size costs half the bottleneck."""
        sample = self._sample(runtime, busy=(("network", 30_000.0),))
        efficiency = runtime.machine.quirks.runtime_efficiency
        assert steady_state_ns(
            sample, sample.nbytes // 2, efficiency, 0.0
        ) == 15_000.0 / efficiency
