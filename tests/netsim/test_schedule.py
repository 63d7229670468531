"""Tests for AAPC phase scheduling (repro.netsim.schedule)."""

import pytest

from repro.netsim.patterns import all_to_all, cyclic_shift
from repro.machines import t3d
from repro.netsim import schedule as schedule_module
from repro.netsim.schedule import (
    aapc_phases_shift,
    aapc_phases_xor,
    best_aapc_schedule,
    partition_into_phases,
    schedule_congestion,
    scheduled_congestion,
)
from repro.netsim.topology import Mesh, Torus


def assert_valid_schedule(phases, n):
    """Every phase is a partial permutation; flows cover the AAPC."""
    seen = set()
    for phase in phases:
        sources = [src for src, __ in phase]
        destinations = [dst for __, dst in phase]
        assert len(set(sources)) == len(sources)
        assert len(set(destinations)) == len(destinations)
        seen.update(phase)
    expected = {(s, d) for s in range(n) for d in range(n) if s != d}
    assert seen == expected


class TestPhaseFamilies:
    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_shift_schedule_complete_and_valid(self, n):
        phases = aapc_phases_shift(n)
        assert len(phases) == n - 1
        assert_valid_schedule(phases, n)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_xor_schedule_complete_and_valid(self, n):
        phases = aapc_phases_xor(n)
        assert len(phases) == n - 1
        assert_valid_schedule(phases, n)

    def test_xor_requires_power_of_two(self):
        with pytest.raises(ValueError):
            aapc_phases_xor(12)

    def test_xor_phases_are_involutions(self):
        for phase in aapc_phases_xor(8):
            flows = set(phase)
            assert all((dst, src) in flows for src, dst in flows)

    def test_trivial_sizes(self):
        assert aapc_phases_shift(1) == []
        assert aapc_phases_xor(1) == []


class TestScheduleCongestion:
    def test_paper_claim_64_node_torus(self):
        """Scheduled AAPC on the 64-node T3D torus runs at the
        port-sharing congestion (2), not the unscheduled worst link."""
        torus = Torus(4, 4, 4)
        __, worst, __phases = best_aapc_schedule(torus)
        assert worst <= 2
        assert torus.max_link_congestion(all_to_all(64)) > 10 * worst

    def test_paragon_aspect_ratio_quirk(self):
        """Skewed meshes congest even scheduled exchanges (Section 4.3)."""
        skewed = Mesh(4, 16)
        square = Mesh(8, 8)
        __, worst_skewed, __p1 = best_aapc_schedule(skewed)
        __, worst_square, __p2 = best_aapc_schedule(square)
        assert worst_skewed > worst_square

    def test_per_phase_loads_reported(self):
        torus = Torus(2, 2)
        worst, per_phase = schedule_congestion(torus, aapc_phases_shift(4))
        assert len(per_phase) == 3
        assert worst == max(per_phase)


class TestPartition:
    def test_complete_exchange_detected(self):
        phases = partition_into_phases(all_to_all(8))
        assert len(phases) == 7
        assert_valid_schedule(phases, 8)

    def test_shift_pattern_single_phase(self):
        phases = partition_into_phases(cyclic_shift(16))
        assert len(phases) == 1

    def test_greedy_phases_are_partial_permutations(self):
        flows = [(0, 1), (0, 2), (1, 2), (3, 1)]
        phases = partition_into_phases(flows)
        for phase in phases:
            sources = [s for s, __ in phase]
            destinations = [d for __, d in phase]
            assert len(set(sources)) == len(sources)
            assert len(set(destinations)) == len(destinations)
        assert sum(len(p) for p in phases) == len(flows)

    def test_self_flows_dropped(self):
        assert partition_into_phases([(2, 2)]) == []

    def test_scheduled_congestion_cached(self):
        torus = Torus(4, 4)
        first = scheduled_congestion(torus, all_to_all(16))
        second = scheduled_congestion(torus, all_to_all(16))
        assert first == second
        assert first <= 2

    def test_cached_congestion_ignores_call_order(self, monkeypatch):
        """Regression: the cache key sorted the flows, but the greedy
        partition depends on their order, so whichever ordering ran
        first decided the answer for every later ordering."""
        topology = t3d().topology(8)
        forward = [(6, 1), (2, 0), (3, 2), (4, 1), (0, 6)]
        backward = list(reversed(forward))
        for first, second in ((forward, backward), (backward, forward)):
            monkeypatch.setattr(schedule_module, "_SCHEDULED_CACHE", {})
            answers = {
                tuple(first): scheduled_congestion(topology, first),
                tuple(second): scheduled_congestion(topology, second),
            }
            assert answers[tuple(forward)] == 2.0
            assert answers[tuple(backward)] == 1.0
