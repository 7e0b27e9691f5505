"""Gating-policy interface defaults."""

from repro.core import GateDecision, NoGatingPolicy
from repro.pipeline import CycleUsage, MachineConfig


def test_default_constraints_are_full_machine():
    policy = NoGatingPolicy()
    policy.bind(MachineConfig())
    cons = policy.constraints(123)
    assert cons.issue_width == 8
    assert cons.rename_width == 8
    assert cons.dcache_ports == 2
    assert cons.result_buses == 8
    assert cons.disabled_fus == {}
    assert cons.store_extra_delay == 0


def test_no_gating_decision_is_empty():
    policy = NoGatingPolicy()
    policy.bind(MachineConfig())
    decision = policy.observe(CycleUsage(cycle=0))
    assert decision.fu_gated == {}
    assert decision.latch_gated_slots == 0
    assert decision.dcache_ports_gated == 0
    assert decision.result_buses_gated == 0
    assert decision.issue_queue_gated_fraction == 0.0
    assert not decision.control_always_on
    assert decision.fu_toggle_events == 0


def test_gate_decision_defaults():
    decision = GateDecision()
    assert decision.fu_gated == {}
    assert decision.latch_gated_slots == 0


def test_policy_name():
    assert NoGatingPolicy().name == "base"


def test_no_gating_span_is_one_observe_call():
    """The base policy is stateless: a skipped idle span of any length
    costs one ``observe`` call, not one per cycle."""
    calls = []

    class Counting(NoGatingPolicy):
        def observe(self, usage):
            calls.append(usage.cycle)
            return super().observe(usage)

    policy = Counting()
    policy.bind(MachineConfig())
    decision = policy.observe_span(CycleUsage(cycle=40), 1000)
    assert calls == [40]
    assert decision.fu_gated == {} and decision.latch_gated_slots == 0
