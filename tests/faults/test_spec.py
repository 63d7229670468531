"""Tests for fault specs and the seeded, deterministic fault plan."""

import pytest

from repro.core.errors import FaultError
from repro.faults import (
    DepositFault,
    FaultPlan,
    FragmentFault,
    LinkFault,
    NodeFault,
    RetryPolicy,
    current_fault_plan,
    injecting,
)


class TestFaultSpecs:
    def test_link_derate_bounds(self):
        with pytest.raises(FaultError):
            LinkFault(derate=0.0)
        with pytest.raises(FaultError):
            LinkFault(derate=1.5)
        LinkFault(derate=1.0)
        LinkFault(derate=0.01)

    def test_link_needs_both_endpoints_or_neither(self):
        with pytest.raises(FaultError):
            LinkFault(src=0)
        with pytest.raises(FaultError):
            LinkFault(dst=3)
        LinkFault(src=0, dst=3)
        LinkFault()

    def test_failed_link_needs_endpoints(self):
        with pytest.raises(FaultError):
            LinkFault(failed=True)
        LinkFault(src=0, dst=1, failed=True)

    def test_node_slowdown_at_least_one(self):
        with pytest.raises(FaultError):
            NodeFault(node=0, slowdown=0.5)
        NodeFault(node=0, slowdown=1.0)

    def test_fragment_probabilities_bounded(self):
        with pytest.raises(FaultError):
            FragmentFault(loss=1.0)
        with pytest.raises(FaultError):
            FragmentFault(corrupt=-0.1)
        FragmentFault(loss=0.99, corrupt=0.0)


class TestFaultPlanQueries:
    def test_empty_plan(self):
        plan = FaultPlan(seed=1)
        assert plan.is_empty()
        assert plan.deposit_available(0)
        assert plan.node_slowdown(3) == 1.0
        assert plan.global_link_derate() == 1.0
        assert not plan.has_wire_faults()

    def test_global_deposit_fault_hits_every_node(self):
        plan = FaultPlan(deposits=(DepositFault(),))
        assert not plan.deposit_available(0)
        assert not plan.deposit_available(None)

    def test_per_node_deposit_fault_needs_concrete_node(self):
        plan = FaultPlan(deposits=(DepositFault(node=2),))
        assert not plan.deposit_available(2)
        assert plan.deposit_available(3)
        # An anonymous transfer cannot be pinned to the faulty node.
        assert plan.deposit_available(None)

    def test_node_slowdowns_multiply(self):
        plan = FaultPlan(
            nodes=(NodeFault(node=1, slowdown=2.0), NodeFault(node=1, slowdown=1.5))
        )
        assert plan.node_slowdown(1) == pytest.approx(3.0)
        assert plan.node_slowdown(0) == 1.0
        assert plan.node_slowdown(None) == 1.0

    def test_link_derates_combine(self):
        plan = FaultPlan(
            links=(LinkFault(derate=0.5), LinkFault(src=0, dst=1, derate=0.5))
        )
        assert plan.global_link_derate() == pytest.approx(0.5)
        assert plan.link_derate(0, 1) == pytest.approx(0.25)
        assert plan.link_derate(1, 2) == pytest.approx(0.5)

    def test_failed_links_listed(self):
        plan = FaultPlan(links=(LinkFault(src=4, dst=5, failed=True),))
        assert plan.failed_links() == frozenset({(4, 5)})

    def test_loss_probability_combines_independent_faults(self):
        plan = FaultPlan(
            fragments=(FragmentFault(loss=0.5), FragmentFault(loss=0.5))
        )
        assert plan.loss_probability() == pytest.approx(0.75)
        assert plan.has_wire_faults()


class TestDeterministicRandomness:
    def test_uniform_is_pure(self):
        plan = FaultPlan(seed=42)
        draws = [plan.uniform("a", 1, "loss") for __ in range(5)]
        assert len(set(draws)) == 1
        assert 0.0 <= draws[0] < 1.0

    def test_uniform_depends_on_seed_and_key(self):
        a = FaultPlan(seed=1).uniform("k")
        b = FaultPlan(seed=2).uniform("k")
        c = FaultPlan(seed=1).uniform("other")
        assert a != b
        assert a != c

    def test_bernoulli_zero_probability_never_fires(self):
        plan = FaultPlan(seed=3)
        assert not any(plan.bernoulli(0.0, i) for i in range(50))

    def test_bernoulli_rate_roughly_matches(self):
        plan = FaultPlan(seed=3)
        hits = sum(plan.bernoulli(0.3, i) for i in range(2000))
        assert 450 < hits < 750


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=11,
            links=(LinkFault(src=0, dst=1, failed=True), LinkFault(derate=0.7)),
            nodes=(NodeFault(node=2, slowdown=2.5),),
            deposits=(DepositFault(node=1),),
            fragments=(FragmentFault(loss=0.1, corrupt=0.05),),
            retry=RetryPolicy(max_attempts=3, granularity="message"),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"seed": 1, "bogus": []})

    def test_malformed_spec_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"links": [{"sr": 0}]})

    @pytest.mark.parametrize("payload, field", [
        ({"seed": "abc"}, "seed"),
        ({"fragments": [{"loss": "x"}]}, "fragments[0].loss"),
        ({"retry": {"max_attempts": True}}, "retry.max_attempts"),
        ({"nodes": [{}]}, "nodes[0].node"),
    ])
    def test_field_errors_name_the_field(self, payload, field):
        with pytest.raises(FaultError) as excinfo:
            FaultPlan.from_dict(payload)
        assert field in str(excinfo.value)

    def test_from_json_rejects_bad_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(FaultError):
            FaultPlan.from_json(str(path))

    def test_with_seed_only_changes_seed(self):
        plan = FaultPlan.chaos(seed=1)
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.links == plan.links

    def test_chaos_exercises_every_fault_class(self):
        plan = FaultPlan.chaos()
        assert plan.links and plan.nodes and plan.deposits and plan.fragments
        assert len(plan.describe()) == 4


class TestInjecting:
    def test_scoped_installation(self):
        assert current_fault_plan() is None
        plan = FaultPlan(seed=5)
        with injecting(plan) as active:
            assert active is plan
            assert current_fault_plan() is plan
        assert current_fault_plan() is None

    def test_nested_plans_restore(self):
        outer, inner = FaultPlan(seed=1), FaultPlan(seed=2)
        with injecting(outer):
            with injecting(inner):
                assert current_fault_plan() is inner
            assert current_fault_plan() is outer
