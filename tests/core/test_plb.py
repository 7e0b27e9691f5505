"""Pipeline balancing policy."""

import pytest

from repro.core import MODE_RESOURCES, NoGatingPolicy, PLBPolicy, PLBTriggerConfig
from repro.pipeline import CycleUsage, MachineConfig, Pipeline
from repro.trace import FUClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile


def _drive_windows(policy, issued_per_cycle, windows=1, fp_per_cycle=0):
    """Feed synthetic usage for whole windows; returns policy."""
    window = policy.triggers.window_cycles
    start = getattr(policy, "_test_cycle", 0)
    for c in range(start, start + windows * window):
        policy.constraints(c)
        usage = CycleUsage(cycle=c)
        usage.issued = issued_per_cycle
        usage.issued_fp = fp_per_cycle
        policy.observe(usage)
    policy._test_cycle = start + windows * window
    return policy


def _fresh(extended=False, **trig):
    policy = PLBPolicy(extended=extended, triggers=PLBTriggerConfig(**trig))
    policy.bind(MachineConfig())
    return policy


def test_trigger_validation():
    with pytest.raises(ValueError):
        PLBTriggerConfig(window_cycles=0)
    with pytest.raises(ValueError):
        PLBTriggerConfig(ipc_4wide=5.0, ipc_6wide=4.0)
    with pytest.raises(ValueError):
        PLBTriggerConfig(history_depth=0)


def test_starts_in_8_wide():
    policy = _fresh()
    assert policy.mode == 8
    assert policy.constraints(0).issue_width == 8


def test_steps_down_after_hysteresis():
    policy = _fresh(history_depth=2)
    _drive_windows(policy, issued_per_cycle=0)   # one low window: vote only
    assert policy.mode == 8
    _drive_windows(policy, issued_per_cycle=0)   # second consecutive vote
    # mode updates at the *next* window boundary
    policy.constraints(policy._test_cycle)
    assert policy.mode == 4


def test_steps_up_immediately():
    policy = _fresh(history_depth=2)
    _drive_windows(policy, issued_per_cycle=0, windows=3)
    policy.constraints(policy._test_cycle)
    assert policy.mode == 4
    _drive_windows(policy, issued_per_cycle=8)   # one busy window
    policy.constraints(policy._test_cycle)
    assert policy.mode == 8


def test_mid_ipc_votes_6_wide():
    policy = _fresh(history_depth=1, ipc_4wide=2.4, ipc_6wide=5.0)
    _drive_windows(policy, issued_per_cycle=3)
    policy.constraints(policy._test_cycle)
    assert policy.mode == 6


def test_fp_guard_blocks_4_wide():
    """Secondary trigger: high FP issue IPC keeps the FP cluster on."""
    policy = _fresh(history_depth=1)
    _drive_windows(policy, issued_per_cycle=1, fp_per_cycle=1)
    policy.constraints(policy._test_cycle)
    assert policy.mode == 6   # not 4, despite low total IPC


def test_mode_resources_match_paper():
    assert MODE_RESOURCES[6]["disabled_fus"] == {
        FUClass.INT_ALU: 1, FUClass.FP_ALU: 1, FUClass.FP_MULT: 1}
    four = MODE_RESOURCES[4]["disabled_fus"]
    assert four[FUClass.INT_ALU] == 3
    assert four[FUClass.INT_MULT] == 1
    assert four[FUClass.FP_ALU] == 2
    assert four[FUClass.FP_MULT] == 2
    assert MODE_RESOURCES[4]["dcache_ports_disabled"] == 1
    assert MODE_RESOURCES[6]["dcache_ports_disabled"] == 0
    assert MODE_RESOURCES[6]["result_buses_disabled"] == 2
    assert MODE_RESOURCES[4]["result_buses_disabled"] == 4


def test_orig_constraints_keep_memory_system():
    """PLB-orig restricts issue width and units, not cache ports or
    result buses (it only gated execution units + issue queue)."""
    policy = _fresh(extended=False, history_depth=1)
    _drive_windows(policy, issued_per_cycle=0)
    cons = policy.constraints(policy._test_cycle)
    assert policy.mode == 4
    assert cons.issue_width == 4
    assert cons.dcache_ports == 2
    assert cons.result_buses == 8
    assert cons.disabled_fus[FUClass.INT_ALU] == 3


def test_ext_constraints_reduce_ports_and_buses():
    policy = _fresh(extended=True, history_depth=1)
    _drive_windows(policy, issued_per_cycle=0)
    cons = policy.constraints(policy._test_cycle)
    assert cons.dcache_ports == 1
    assert cons.result_buses == 4


def test_orig_gates_only_units_and_issue_queue():
    policy = _fresh(extended=False, history_depth=1)
    _drive_windows(policy, issued_per_cycle=0, windows=2)
    policy.constraints(policy._test_cycle)
    usage = CycleUsage(cycle=policy._test_cycle)
    decision = policy.observe(usage)
    assert decision.issue_queue_gated_fraction == 0.5
    assert sum(decision.fu_gated.values()) == 8
    assert decision.latch_gated_slots == 0
    assert decision.dcache_ports_gated == 0
    assert decision.result_buses_gated == 0


def test_ext_gates_latches_ports_buses():
    policy = _fresh(extended=True, history_depth=1)
    _drive_windows(policy, issued_per_cycle=0, windows=2)
    policy.constraints(policy._test_cycle)
    usage = CycleUsage(cycle=policy._test_cycle)
    decision = policy.observe(usage)
    assert decision.latch_gated_slots > 0
    assert decision.dcache_ports_gated == 1
    assert decision.result_buses_gated == 4


def test_in_flight_activity_defers_unit_gating():
    """A disabled unit still draining an op cannot be gated yet."""
    policy = _fresh(history_depth=1)
    _drive_windows(policy, issued_per_cycle=0, windows=2)
    policy.constraints(policy._test_cycle)
    assert policy.mode == 4
    usage = CycleUsage(cycle=policy._test_cycle)
    # highest-index INT_ALU (a disabled one) still has an op in flight
    usage.fu_active[FUClass.INT_ALU] = (False,) * 5 + (True,)
    decision = policy.observe(usage)
    assert decision.fu_gated[FUClass.INT_ALU] == 2   # 3 disabled - 1 active


def test_plb_loses_performance_on_real_workload():
    """The predictive scheme must show the paper's qualitative cost:
    more cycles than the base machine on a bursty workload."""
    def run(policy):
        generator = SyntheticTraceGenerator(get_profile("gzip"))
        pipe = Pipeline(MachineConfig(),
                        TraceStream(iter(generator), limit=6000), policy)
        generator.prewarm(pipe.hierarchy)
        return pipe.run(max_instructions=6000)

    base = run(NoGatingPolicy())
    plb = run(PLBPolicy(extended=True))
    assert plb.cycles >= base.cycles
    # and the loss stays modest (paper: ~2.9 %)
    assert plb.cycles <= base.cycles * 1.25


def test_mode_cycle_accounting():
    policy = _fresh(history_depth=1)
    _drive_windows(policy, issued_per_cycle=8, windows=2)
    assert policy.mode_cycles[8] == 2 * policy.triggers.window_cycles


def test_rebind_clears_pending_mode():
    """Reusing one policy object across runs (run_many does this) must
    start each run from pristine trigger state: a half-accumulated
    downgrade vote from the previous run may not leak into the next."""
    policy = _fresh(history_depth=3)
    _drive_windows(policy, issued_per_cycle=0)   # one low window
    policy.constraints(policy._test_cycle)       # boundary: arms the vote
    assert policy._pending_mode == 4             # downgrade armed...
    assert policy.mode == 8                      # ...but not yet applied
    policy.bind(MachineConfig())                 # fresh run, same object
    assert policy._pending_mode == 8
    assert policy._down_votes == 0
    assert policy.mode == 8
    # the rebound policy must now behave exactly like a brand-new one
    policy._test_cycle = 0
    fresh = _fresh(history_depth=3)
    for p in (policy, fresh):
        _drive_windows(p, issued_per_cycle=0, windows=2)
        p.constraints(p._test_cycle)
    assert policy.mode == fresh.mode
    assert policy._pending_mode == fresh._pending_mode
    assert policy._down_votes == fresh._down_votes


def test_plb_ext_completes_every_benchmark_on_width_4():
    """On ``width=4`` the 4-wide mode used to disable all four result
    buses, so nothing could complete and the pipeline deadlocked."""
    from repro.sim import Simulator
    from repro.sim.configs import config_from_tag
    from repro.workloads import ALL_BENCHMARKS
    sim = Simulator(config_from_tag("width=4"))
    entered_4_wide = 0
    for benchmark in sorted(ALL_BENCHMARKS):
        result = sim.run_benchmark(benchmark, "plb-ext", instructions=2000)
        assert result.instructions == 2000
        entered_4_wide += result.mode_cycles[4] > 0
    assert entered_4_wide > 0      # the formerly deadlocking mode ran
