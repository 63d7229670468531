"""Workload specs: validation, serialization, deterministic draws."""

import math

import pytest

from repro.core.errors import LoadError, ModelError
from repro.load import (
    PROFILES,
    ClosedLoopSpec,
    LoadProfile,
    OpenLoopSpec,
    RequestTemplate,
    profile_by_name,
    uniform,
)


class TestUniform:
    def test_pure_function_of_seed_and_key(self):
        assert uniform(7, "a", 1) == uniform(7, "a", 1)
        assert uniform(7, "a", 1) != uniform(7, "a", 2)
        assert uniform(7, "a", 1) != uniform(8, "a", 1)

    def test_range(self):
        for draw in range(50):
            value = uniform(3, "range", draw)
            assert 0.0 <= value < 1.0


class TestSpecs:
    def test_template_rejects_nonpositive_bytes(self):
        with pytest.raises(ModelError):
            RequestTemplate("bad", nbytes=0)

    def test_open_loop_rejects_bad_rate_and_burst(self):
        template = (RequestTemplate("t"),)
        with pytest.raises(ModelError):
            OpenLoopSpec("g", rate_per_s=0.0, templates=template)
        with pytest.raises(ModelError):
            OpenLoopSpec("g", rate_per_s=10.0, burst=0, templates=template)

    def test_closed_loop_rejects_bad_clients_and_think(self):
        template = (RequestTemplate("t"),)
        with pytest.raises(ModelError):
            ClosedLoopSpec("g", clients=0, templates=template)
        with pytest.raises(ModelError):
            ClosedLoopSpec("g", clients=1, think_ns=-1.0, templates=template)

    def test_profile_needs_generators_and_nodes(self):
        with pytest.raises(ModelError):
            LoadProfile(name="empty")
        with pytest.raises(ModelError):
            LoadProfile(
                name="tiny",
                nodes=1,
                open_loops=(OpenLoopSpec("g", rate_per_s=1.0),),
            )

    def test_profile_rejects_duplicate_generator_names(self):
        with pytest.raises(ModelError):
            LoadProfile(
                name="dup",
                open_loops=(OpenLoopSpec("g", rate_per_s=1.0),),
                closed_loops=(ClosedLoopSpec("g", clients=1),),
            )

    def test_profile_rejects_unknown_discipline(self):
        with pytest.raises(ModelError):
            LoadProfile(
                name="bad",
                discipline="lifo",
                open_loops=(OpenLoopSpec("g", rate_per_s=1.0),),
            )


class TestArrivals:
    def test_stream_is_reproducible_and_sorted(self):
        spec = OpenLoopSpec("g", rate_per_s=50_000.0)
        first = list(spec.arrivals(seed=7, horizon_ns=1e6))
        again = list(spec.arrivals(seed=7, horizon_ns=1e6))
        assert first == again
        times = [time_ns for time_ns, __ in first]
        assert times == sorted(times)
        assert all(time_ns < 1e6 for time_ns in times)

    def test_mean_gap_tracks_rate(self):
        spec = OpenLoopSpec("g", rate_per_s=100_000.0)
        times = [t for t, __ in spec.arrivals(seed=3, horizon_ns=1e9)]
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        assert math.isclose(mean, 1e9 / 100_000.0, rel_tol=0.1)

    def test_burst_multiplies_requests_per_arrival(self):
        plain = OpenLoopSpec("g", rate_per_s=10_000.0)
        bursty = OpenLoopSpec("g", rate_per_s=10_000.0, burst=4)
        n_plain = len(list(plain.arrivals(seed=7, horizon_ns=1e7)))
        n_bursty = len(list(bursty.arrivals(seed=7, horizon_ns=1e7)))
        assert n_bursty == 4 * n_plain


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profiles_round_trip(self, name):
        profile = profile_by_name(name)
        assert LoadProfile.from_dict(profile.to_dict()) == profile

    @pytest.mark.parametrize("cls, payload", [
        (OpenLoopSpec, {"name": "g", "rate_per_s": 10.0}),
        (ClosedLoopSpec, {"name": "g", "clients": 2}),
    ])
    def test_omitted_templates_take_the_default(self, cls, payload):
        assert cls.from_dict(payload).templates == (RequestTemplate("default"),)

    @pytest.mark.parametrize("path, value", [
        (("machine",), "cm5"),
        (("dispatch",), "nope"),
        (("open_loops", 0, "templates", 0, "style"), "zero-copy"),
    ])
    def test_unknown_choice_names_the_field(self, path, value):
        payload = profile_by_name("steady").to_dict()
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(LoadError) as excinfo:
            LoadProfile.from_dict(payload)
        message = str(excinfo.value)
        assert "\n" not in message
        assert f"{path[-1]}: expected one of" in message
        assert repr(value) in message

    def test_unknown_profile_is_model_error(self):
        with pytest.raises(ModelError):
            profile_by_name("nope")
