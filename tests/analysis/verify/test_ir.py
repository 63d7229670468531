"""Lowering tests: expressions and plans -> plan IR."""

import pytest

from repro.analysis import parse_expr
from repro.analysis.verify import (
    IREdge,
    lower_expr,
    lower_plan,
    phase_partition,
)
from repro.analysis.verify.examples import step_plan
from repro.core.errors import ModelError
from repro.machines import t3d


class TestLowerExpr:
    def test_terms_become_op_nodes_with_claims_and_spans(self):
        ir = lower_expr(parse_expr("1S0 || 0D64"), name="pair")
        assert [node.kind for node in ir.nodes] == ["op", "op"]
        send, deposit = ir.nodes
        assert "sender:cpu" in send.exclusive
        assert send.span is not None and send.span.start == 0
        assert deposit.span is not None and deposit.span.start > send.span.end
        # Par children stay mutually unordered.
        assert ir.edges == ()

    def test_seq_chains_exits_to_entries(self):
        ir = lower_expr(parse_expr("64C1 o 1C64"))
        assert ir.edges == (IREdge(src="e0", dst="e1", kind="order"),)
        reach = ir.reachability()
        assert "e1" in reach["e0"]
        assert "e0" not in reach["e1"]

    def test_seq_of_pars_adds_all_pairs_edges(self):
        ir = lower_expr(parse_expr("(1S0 || Nd) o (Nd || 0D1)"))
        heads = {e.src for e in ir.edges}
        tails = {e.dst for e in ir.edges}
        assert heads == {"e0", "e1"} and tails == {"e2", "e3"}
        assert len(ir.edges) == 4

    def test_notation_and_machine_carried(self):
        expr = parse_expr("64C1")
        ir = lower_expr(expr, machine="Cray T3D", name="one")
        assert ir.name == "one"
        assert ir.machine == "Cray T3D"
        assert ir.notation == expr.notation()


class TestPhasePartition:
    def test_permutation_fits_one_phase(self):
        assert phase_partition([(0, 1), (1, 2), (2, 0)]) == [[0, 1, 2]]

    def test_fan_in_serializes_on_the_root(self):
        phases = phase_partition([(1, 0), (2, 0), (3, 0)])
        assert phases == [[0], [1], [2]]

    def test_every_index_appears_exactly_once(self):
        flows = [(0, 1), (0, 2), (1, 0), (2, 1), (1, 2)]
        phases = phase_partition(flows)
        flat = sorted(index for phase in phases for index in phase)
        assert flat == list(range(len(flows)))

    def test_phases_are_partial_permutations(self):
        flows = [(0, 1), (0, 2), (1, 0), (2, 1), (1, 2), (2, 0)]
        for members in phase_partition(flows):
            sources = [flows[i][0] for i in members]
            destinations = [flows[i][1] for i in members]
            assert len(set(sources)) == len(sources)
            assert len(set(destinations)) == len(destinations)


class TestLowerPlan:
    def test_role_scoped_cpu_claims_allow_duplex(self):
        # A cyclic shift: every node sends and receives in the same
        # phase.  That is legal duplex traffic, so the send and recv
        # sides of one node's processor must be distinct claims.
        plan = step_plan("shift", 4)
        ir = lower_plan(plan, capabilities=t3d().capabilities,
                        style="buffer-packing")
        op0 = ir.node_by_id("op0")
        assert "node0:cpu[send]" in op0.exclusive
        assert "node1:cpu[recv]" in op0.exclusive
        assert not any(
            claim.endswith(":cpu") for claim in op0.exclusive
        )
        assert ir.concurrent_claims() == []

    def test_phased_schedule_inserts_barriers(self):
        plan = step_plan("fan-in", 4)
        ir = lower_plan(plan, schedule="phased")
        barriers = [n for n in ir.nodes if n.kind == "phase"]
        # 3 flows into one root -> 3 phases -> 2 barriers.
        assert len(barriers) == 2
        assert all(not b.exclusive and not b.shared for b in barriers)
        reach = ir.reachability()
        assert "op2" in reach["op0"]

    def test_eager_schedule_has_no_ordering(self):
        plan = step_plan("fan-in", 4)
        ir = lower_plan(plan, schedule="eager")
        assert ir.edges == ()

    def test_network_and_memory_are_shared(self):
        plan = step_plan("shift", 3)
        ir = lower_plan(plan, capabilities=t3d().capabilities,
                        style="chained")
        op0 = ir.node_by_id("op0")
        assert "network" in op0.shared
        assert "node0:memory" in op0.shared

    def test_unknown_schedule_and_discipline_raise(self):
        plan = step_plan("shift", 3)
        with pytest.raises(ValueError):
            lower_plan(plan, schedule="bogus")
        with pytest.raises(ValueError):
            lower_plan(plan, discipline="bogus")

    def test_step_plan_rejects_unknown_step_and_tiny_partitions(self):
        with pytest.raises(ModelError):
            step_plan("scatter-gather", 8)
        with pytest.raises(ModelError):
            step_plan("shift", 1)
