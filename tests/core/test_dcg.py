"""Deterministic clock gating mechanism."""

import pytest

from repro.core import DCGPolicy, NoGatingPolicy
from repro.pipeline import CycleUsage, MachineConfig, Pipeline
from repro.trace import FUClass, MicroOp, OpClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

from ..conftest import CycleRecorder


def _pipeline(policy, benchmark="gzip", n=3000):
    generator = SyntheticTraceGenerator(get_profile(benchmark))
    pipe = Pipeline(MachineConfig(), TraceStream(iter(generator), limit=n),
                    policy)
    generator.prewarm(pipe.hierarchy)
    return pipe


def test_validation():
    with pytest.raises(ValueError):
        DCGPolicy(store_policy="psychic")


def test_no_constraints_in_advance_mode():
    policy = DCGPolicy()
    policy.bind(MachineConfig())
    cons = policy.constraints(0)
    assert cons.issue_width == 8
    assert cons.store_extra_delay == 0
    assert cons.disabled_fus == {}


def test_delayed_store_policy_adds_one_cycle():
    policy = DCGPolicy(store_policy="delayed")
    policy.bind(MachineConfig())
    assert policy.constraints(0).store_extra_delay == 1


def test_grant_calendar_matches_actual_activity():
    """The paper's core claim: GRANT signals known at issue fully
    determine execution-unit usage two cycles later.  verify=True makes
    DCGPolicy raise on any disagreement; a full run must be silent."""
    policy = DCGPolicy(verify=True)
    pipe = _pipeline(policy)
    stats = pipe.run(max_instructions=3000)
    assert stats.committed == 3000


def test_determinism_check_catches_fabricated_activity():
    policy = DCGPolicy(verify=True)
    policy.bind(MachineConfig())
    # a unit is active without any grant having predicted it
    usage = CycleUsage(cycle=0)
    usage.fu_active[FUClass.INT_ALU] = (True,) + (False,) * 5
    for cls in (FUClass.INT_MULT, FUClass.FP_ALU, FUClass.FP_MULT):
        usage.fu_active[cls] = (False,) * MachineConfig().fu_counts[cls]
    with pytest.raises(AssertionError, match="determinism violated"):
        policy.observe(usage)


def test_gates_exactly_the_unused_blocks():
    """Over a real run, every gate decision must complement observed
    usage exactly: gated + used == capacity for each family."""
    policy = DCGPolicy()
    pipe = _pipeline(policy)
    config = pipe.config
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    pipe.run(max_instructions=2000)
    gated_stage_slots = config.depth.gated_latch_stages * config.issue_width
    for usage, decision in recorder.records:
        for fu_class in (FUClass.INT_ALU, FUClass.INT_MULT,
                         FUClass.FP_ALU, FUClass.FP_MULT):
            used = usage.fu_used_count(fu_class)
            gated = decision.fu_gated[fu_class]
            assert used + gated == config.fu_counts[fu_class]
        used_slots = sum(usage.latch_slots.values())
        assert decision.latch_gated_slots == gated_stage_slots - used_slots
        assert (decision.dcache_ports_gated
                == config.dcache_ports - usage.dcache_ports_used)
        assert (decision.result_buses_gated
                == config.result_buses - usage.result_bus_used)
        assert decision.control_always_on


def test_zero_performance_loss():
    """DCG must not change the cycle count at all (advance store
    policy imposes no constraints)."""
    base = _pipeline(NoGatingPolicy())
    base_stats = base.run(max_instructions=3000)
    dcg = _pipeline(DCGPolicy())
    dcg_stats = dcg.run(max_instructions=3000)
    assert dcg_stats.cycles == base_stats.cycles
    assert dcg_stats.committed == base_stats.committed


def test_delayed_store_policy_costs_almost_nothing():
    """§3.3: delaying stores by one cycle for gate-control set-up has
    virtually no performance impact."""
    base = _pipeline(NoGatingPolicy(), benchmark="vortex")
    base_stats = base.run(max_instructions=3000)
    delayed = _pipeline(DCGPolicy(store_policy="delayed"),
                        benchmark="vortex")
    delayed_stats = delayed.run(max_instructions=3000)
    slowdown = delayed_stats.cycles / base_stats.cycles
    assert slowdown < 1.02


def test_component_disable_flags():
    policy = DCGPolicy(gate_units=False, gate_latches=False,
                       gate_dcache=False, gate_result_bus=False)
    pipe = _pipeline(policy)
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    pipe.run(max_instructions=500)
    for decision in recorder.decisions:
        assert decision.fu_gated == {}
        assert decision.latch_gated_slots == 0
        assert decision.dcache_ports_gated == 0
        assert decision.result_buses_gated == 0


def test_sequential_priority_toggles_less_than_round_robin():
    """§3.1: static unit priorities keep gate controls stable."""
    from repro.backend import AllocationPolicy
    seq_policy = DCGPolicy()
    seq_pipe = _pipeline(seq_policy)
    seq_pipe.run(max_instructions=3000)

    rr_policy = DCGPolicy()
    generator = SyntheticTraceGenerator(get_profile("gzip"))
    rr_config = MachineConfig(fu_policy=AllocationPolicy.ROUND_ROBIN)
    rr_pipe = Pipeline(rr_config, TraceStream(iter(generator), limit=3000),
                       rr_policy)
    generator.prewarm(rr_pipe.hierarchy)
    rr_pipe.run(max_instructions=3000)

    assert seq_policy.toggle_count < rr_policy.toggle_count


def test_dcg_never_gates_issue_queue():
    """§2.2.2: DCG leaves the issue queue to [6]'s technique."""
    policy = DCGPolicy()
    pipe = _pipeline(policy)
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    pipe.run(max_instructions=500)
    assert all(d.issue_queue_gated_fraction == 0.0
               for d in recorder.decisions)


def test_issue_queue_extension_gates_empty_entries():
    """Extension: composing DCG with [6]'s deterministic issue-queue
    gating saves strictly more power at identical cycle counts."""
    plain = DCGPolicy()
    plain_pipe = _pipeline(plain)
    plain_recorder = CycleRecorder()
    plain_pipe.add_observer(plain_recorder)
    plain_stats = plain_pipe.run(max_instructions=2000)

    combined = DCGPolicy(gate_issue_queue=True)
    assert combined.name == "dcg+iq"
    combined_pipe = _pipeline(combined)
    recorder = CycleRecorder()
    combined_pipe.add_observer(recorder)
    combined_stats = combined_pipe.run(max_instructions=2000)

    assert combined_stats.cycles == plain_stats.cycles
    assert all(d.issue_queue_gated_fraction == 0.0
               for d in plain_recorder.decisions)
    window = MachineConfig().window_size
    for usage, decision in recorder.records:
        expected = (window - usage.window_occupancy) / window
        assert decision.issue_queue_gated_fraction == expected
