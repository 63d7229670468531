"""The traffic engine: conservation, replay, faults, report shape."""

import pytest

from repro.core.errors import ModelError
from repro.faults import FaultPlan
from repro.load import (
    ClosedLoopSpec,
    LoadEngine,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    profile_by_name,
    validate_load_report,
)

_HORIZON = 10_000_000.0  # 10 ms of simulated traffic


def _steady():
    return profile_by_name("steady")


class TestConservation:
    def test_every_offered_request_completes(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        assert result.offered > 0
        assert result.completed == result.offered

    def test_served_counts_match_completions(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        nic_served = sum(
            summary["served"]
            for name, summary in result.stations.items()
            if name.endswith("/nic")
        )
        assert nic_served == result.completed

    def test_drain_runs_past_horizon(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        assert result.end_ns >= 0.0
        assert result.latency["count"] == result.completed


class TestReplay:
    @pytest.mark.parametrize("name", ("steady", "bursty", "closed"))
    def test_same_seed_is_bit_identical(self, name):
        profile = profile_by_name(name)
        first = LoadEngine(profile, seed=7).run(_HORIZON)
        again = LoadEngine(profile, seed=7).run(_HORIZON)
        assert first.canonical_json() == again.canonical_json()
        assert first.digest() == again.digest()

    def test_different_seeds_differ(self):
        first = LoadEngine(_steady(), seed=7).run(_HORIZON)
        other = LoadEngine(_steady(), seed=8).run(_HORIZON)
        assert first.digest() != other.digest()

    def test_workers_do_not_change_the_payload(self):
        profile = LoadProfile(
            name="multi",
            open_loops=tuple(
                OpenLoopSpec(
                    name=f"gen{index}",
                    rate_per_s=2000.0,
                    templates=(RequestTemplate(f"t{index}", nbytes=4096),),
                )
                for index in range(5)
            ),
        )
        serial = LoadEngine(profile, seed=7).run(_HORIZON, workers=1)
        threaded = LoadEngine(profile, seed=7).run(_HORIZON, workers=4)
        assert serial.canonical_json() == threaded.canonical_json()

    def test_negative_seed_rejected(self):
        with pytest.raises(ModelError):
            LoadEngine(_steady(), seed=-1)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ModelError):
            LoadEngine(_steady(), seed=7).run(0.0)


class TestFaults:
    def test_chaos_plan_degrades_the_tail(self):
        healthy = LoadEngine(_steady(), seed=7).run(_HORIZON)
        chaotic = LoadEngine(
            _steady(), seed=7, faults=FaultPlan.chaos(7)
        ).run(_HORIZON)
        assert chaotic.latency["p99"] > healthy.latency["p99"]

    def test_empty_plan_is_bit_identical_to_none(self):
        healthy = LoadEngine(_steady(), seed=7).run(_HORIZON)
        empty = LoadEngine(
            _steady(), seed=7, faults=FaultPlan(seed=7)
        ).run(_HORIZON)
        assert healthy.canonical_json() == empty.canonical_json()

    def test_plan_is_embedded_in_the_report(self):
        plan = FaultPlan.chaos(11)
        result = LoadEngine(_steady(), seed=7, faults=plan).run(_HORIZON)
        payload = result.to_dict()
        assert payload["faults"] == plan.to_dict()
        assert validate_load_report(payload) == []
        # The chaos plan breaks no request, so no overload section.
        assert "overload" not in payload

    def test_aborted_transfers_count_as_broken_without_protection(self):
        plan = FaultPlan.from_dict({
            "seed": 3,
            "fragments": [{"loss": 0.9}],
            "retry": {"max_attempts": 1},
        })
        result = LoadEngine(_steady(), seed=7, faults=plan).run(1_000_000.0)
        payload = result.to_dict()
        assert validate_load_report(payload) == []
        section = payload["overload"]
        assert section["admission"] == {"policy": "none"}
        assert section["totals"]["broken"] > 0
        assert section["totals"]["broken"] == result.offered
        assert all(
            "rejected" in summary for summary in payload["stations"].values()
        )


class TestBackpressure:
    def test_overload_builds_queues(self):
        hot = LoadProfile(
            name="hot",
            open_loops=(
                OpenLoopSpec(
                    name="flood",
                    rate_per_s=100_000.0,
                    templates=(RequestTemplate("big", y="64", nbytes=65536),),
                ),
            ),
        )
        result = LoadEngine(hot, seed=7).run(_HORIZON)
        max_depth = max(
            summary["max_depth"] for summary in result.stations.values()
        )
        assert max_depth > 1
        # The generator's home-node NIC is the bottleneck: it tops out.
        hottest = max(
            summary["utilization"]
            for name, summary in result.stations.items()
            if name.endswith("/nic")
        )
        assert hottest > 0.9

    def test_closed_loop_self_limits(self):
        profile = LoadProfile(
            name="closed1",
            closed_loops=(
                ClosedLoopSpec(
                    name="c",
                    clients=1,
                    think_ns=0.0,
                    templates=(RequestTemplate("t", nbytes=2048),),
                ),
            ),
        )
        result = LoadEngine(profile, seed=7).run(_HORIZON)
        # One client, zero think: exactly one request in flight at a
        # time, so no queue ever forms.
        assert all(
            summary["max_depth"] == 0
            for summary in result.stations.values()
        )
        assert result.completed == result.offered > 0


class TestReport:
    def test_payload_validates(self):
        payload = LoadEngine(_steady(), seed=7).run(_HORIZON).to_dict()
        assert validate_load_report(payload) == []

    def test_validator_catches_damage(self):
        payload = LoadEngine(_steady(), seed=7).run(_HORIZON).to_dict()
        payload["schema"] = "bogus"
        payload["latency_ns"]["p50"] = -1.0
        del payload["offered"]
        errors = validate_load_report(payload)
        assert any("schema" in error for error in errors)
        assert any("p50" in error for error in errors)
        assert any("offered" in error for error in errors)

    def test_profile_in_payload_replays(self):
        payload = LoadEngine(_steady(), seed=7).run(_HORIZON).to_dict()
        rebuilt = LoadProfile.from_dict(payload["profile"])
        again = LoadEngine(rebuilt, seed=payload["seed"]).run(
            payload["duration_ns"]
        )
        assert again.to_dict() == payload

    def test_stats_are_not_canonical(self):
        result = LoadEngine(_steady(), seed=7).run(_HORIZON)
        assert "events" in result.stats
        assert "stats" not in result.to_dict()
        assert "events" not in result.to_dict()
