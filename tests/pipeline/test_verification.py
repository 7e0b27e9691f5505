"""Runtime invariant checker."""

import pytest

from repro.core import DCGPolicy, GateDecision, NoGatingPolicy, PLBPolicy
from repro.pipeline import (
    CycleUsage,
    InvariantChecker,
    InvariantViolation,
    MachineConfig,
    Pipeline,
)
from repro.trace import FUClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile


def _usage_ok(config):
    usage = CycleUsage(cycle=0)
    for cls in (FUClass.INT_ALU, FUClass.INT_MULT,
                FUClass.FP_ALU, FUClass.FP_MULT):
        usage.fu_active[cls] = (False,) * config.fu_counts[cls]
    return usage


def test_clean_cycle_passes():
    config = MachineConfig()
    checker = InvariantChecker(config)
    checker.observe(_usage_ok(config), GateDecision())
    assert checker.clean
    assert checker.cycles_checked == 1


def test_issue_overflow_detected():
    config = MachineConfig()
    checker = InvariantChecker(config)
    usage = _usage_ok(config)
    usage.issued = 9
    with pytest.raises(InvariantViolation, match="issued 9"):
        checker.observe(usage, GateDecision())


def test_gating_a_used_unit_detected():
    config = MachineConfig()
    checker = InvariantChecker(config)
    usage = _usage_ok(config)
    usage.fu_active[FUClass.INT_ALU] = (True,) * 6   # all units busy
    decision = GateDecision(fu_gated={FUClass.INT_ALU: 1})
    with pytest.raises(InvariantViolation, match="INT_ALU"):
        checker.observe(usage, decision)


def test_gating_a_used_bus_detected():
    config = MachineConfig()
    checker = InvariantChecker(config)
    usage = _usage_ok(config)
    usage.result_bus_used = 8
    decision = GateDecision(result_buses_gated=1)
    with pytest.raises(InvariantViolation, match="result bus"):
        checker.observe(usage, decision)


def test_collect_mode_records_instead_of_raising():
    config = MachineConfig()
    checker = InvariantChecker(config, raise_on_violation=False)
    usage = _usage_ok(config)
    usage.issued = 99
    usage.lsq_occupancy = 1000
    checker.observe(usage, GateDecision())
    assert not checker.clean
    assert len(checker.violations) == 2


def test_bad_iq_fraction_detected():
    config = MachineConfig()
    checker = InvariantChecker(config)
    with pytest.raises(InvariantViolation, match="issue-queue"):
        checker.observe(_usage_ok(config),
                        GateDecision(issue_queue_gated_fraction=1.5))


@pytest.mark.parametrize("policy_factory", [
    NoGatingPolicy, DCGPolicy,
    lambda: PLBPolicy(extended=True),
])
def test_real_runs_are_invariant_clean(policy_factory):
    """Every shipped policy keeps the checker silent on a real run."""
    config = MachineConfig()
    generator = SyntheticTraceGenerator(get_profile("vpr"))
    pipe = Pipeline(config, TraceStream(iter(generator), limit=2000),
                    policy_factory())
    generator.prewarm(pipe.hierarchy)
    checker = InvariantChecker(config)
    pipe.add_observer(checker)
    pipe.run(max_instructions=2000)
    assert checker.clean
    assert checker.cycles_checked == pipe.stats.cycles
