"""Energy accounting against hand-computed expectations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GateDecision
from repro.pipeline import CycleUsage, MachineConfig
from repro.power import BlockPowers, PowerAccountant
from repro.trace import FUClass


@pytest.fixture
def blocks():
    return BlockPowers(MachineConfig())


def _observe(accountant, decision, cycles=1):
    for i in range(cycles):
        accountant.observe(CycleUsage(cycle=i), decision)


def test_no_gating_consumes_base_power(blocks):
    acc = PowerAccountant(blocks)
    _observe(acc, GateDecision(), cycles=10)
    assert acc.cycles == 10
    assert acc.average_power == pytest.approx(blocks.total)
    assert acc.total_saving_fraction == 0.0


def test_fu_gating_saves_instance_power(blocks):
    acc = PowerAccountant(blocks)
    decision = GateDecision(fu_gated={FUClass.INT_ALU: 3})
    _observe(acc, decision, cycles=4)
    expected = 3 * blocks.fu_instance[FUClass.INT_ALU]
    assert acc.average_power == pytest.approx(blocks.total - expected)
    assert acc.families["int_units"].saved == pytest.approx(expected * 4)


def test_full_fp_gating_saves_whole_family(blocks):
    acc = PowerAccountant(blocks)
    decision = GateDecision(fu_gated={FUClass.FP_ALU: 4, FUClass.FP_MULT: 4})
    _observe(acc, decision, cycles=5)
    assert acc.family_saving("fp_units") == pytest.approx(1.0)


def test_latch_gating(blocks):
    acc = PowerAccountant(blocks)
    # gate 20 of the 64 slot-stages
    _observe(acc, GateDecision(latch_gated_slots=20), cycles=2)
    expected = 20 * blocks.latch_per_slot_stage
    assert acc.average_power == pytest.approx(blocks.total - expected)
    assert acc.family_saving("latches") == pytest.approx(
        20 / 64, rel=1e-6)


def test_dcache_and_bus_gating(blocks):
    acc = PowerAccountant(blocks)
    decision = GateDecision(dcache_ports_gated=2, result_buses_gated=8)
    _observe(acc, decision)
    assert acc.family_saving("dcache") == pytest.approx(
        blocks.dcache_decoder_fraction)
    assert acc.family_saving("result_bus") == pytest.approx(1.0)


def test_issue_queue_fraction(blocks):
    acc = PowerAccountant(blocks)
    _observe(acc, GateDecision(issue_queue_gated_fraction=0.5))
    assert acc.family_saving("issue_queue") == pytest.approx(0.5)


def test_control_overhead_charged_against_latches(blocks):
    acc = PowerAccountant(blocks)
    _observe(acc, GateDecision(latch_gated_slots=20, control_always_on=True))
    gross = 20 * blocks.latch_per_slot_stage
    net = gross - blocks.dcg_control_overhead_watts
    assert acc.families["latches"].saved == pytest.approx(net)
    assert acc.control_overhead_energy > 0


def test_toggle_energy_reduces_unit_saving(blocks):
    quiet = PowerAccountant(blocks)
    noisy = PowerAccountant(blocks)
    base = GateDecision(fu_gated={FUClass.INT_ALU: 3})
    toggling = GateDecision(fu_gated={FUClass.INT_ALU: 3},
                            fu_toggles={FUClass.INT_ALU: 6})
    _observe(quiet, base, cycles=3)
    _observe(noisy, toggling, cycles=3)
    assert noisy.saved_energy < quiet.saved_energy
    assert noisy.toggle_energy > 0


def test_negative_gated_count_rejected(blocks):
    acc = PowerAccountant(blocks)
    with pytest.raises(ValueError):
        acc.observe(CycleUsage(), GateDecision(fu_gated={FUClass.INT_ALU: -1}))


def test_exec_units_saving_combines_families(blocks):
    acc = PowerAccountant(blocks)
    decision = GateDecision(fu_gated={FUClass.INT_ALU: 6, FUClass.INT_MULT: 2,
                                      FUClass.FP_ALU: 4, FUClass.FP_MULT: 4})
    _observe(acc, decision)
    assert acc.exec_units_saving() == pytest.approx(1.0)


@settings(max_examples=30)
@given(
    ialu=st.integers(0, 6), imul=st.integers(0, 2),
    fpalu=st.integers(0, 4), fpmul=st.integers(0, 4),
    latches=st.integers(0, 64), ports=st.integers(0, 2),
    buses=st.integers(0, 8), cycles=st.integers(1, 20),
)
def test_savings_never_exceed_base(ialu, imul, fpalu, fpmul, latches,
                                   ports, buses, cycles):
    """For any legal gate decision, consumed energy stays within
    [fixed-budget, base] and family savings stay within [0, 1]."""
    blocks = BlockPowers(MachineConfig())
    acc = PowerAccountant(blocks)
    decision = GateDecision(
        fu_gated={FUClass.INT_ALU: ialu, FUClass.INT_MULT: imul,
                  FUClass.FP_ALU: fpalu, FUClass.FP_MULT: fpmul},
        latch_gated_slots=latches,
        dcache_ports_gated=ports,
        result_buses_gated=buses,
    )
    for i in range(cycles):
        acc.observe(CycleUsage(cycle=i), decision)
    assert 0.0 <= acc.total_saving_fraction <= 1.0
    assert acc.consumed_energy <= blocks.total * cycles + 1e-9
    for family in acc.families.values():
        assert -1e-9 <= family.saving_fraction <= 1.0 + 1e-9


_EXEC = (FUClass.INT_ALU, FUClass.INT_MULT, FUClass.FP_ALU, FUClass.FP_MULT)


@st.composite
def decisions(draw):
    counts = MachineConfig().fu_counts
    return GateDecision(
        fu_gated={cls: draw(st.integers(0, counts[cls]))
                  for cls in draw(st.lists(st.sampled_from(_EXEC),
                                           unique=True))},
        latch_gated_slots=draw(st.integers(0, 40)),
        dcache_ports_gated=draw(st.integers(0, 2)),
        result_buses_gated=draw(st.integers(0, 8)),
        issue_queue_gated_fraction=draw(st.sampled_from(
            (0.0, 0.25, 0.5, 3 / 128))),
        control_always_on=draw(st.booleans()),
        fu_toggles={cls: draw(st.integers(1, 3))
                    for cls in draw(st.lists(st.sampled_from(_EXEC),
                                             unique=True))})


def _state(acc):
    return ([(f.base, f.saved) for f in acc.families.values()],
            acc.control_overhead_energy, acc.toggle_energy, acc.cycles)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lead=decisions(), decision=decisions(), n=st.integers(1, 300))
def test_observe_span_is_bit_identical_to_repeated_observe(
        lead, decision, n):
    """A span folds the same float additions as ``n`` observe calls,
    in the same order, so every accumulator matches to the last ulp."""
    blocks = BlockPowers(MachineConfig())
    stepped, spanned = PowerAccountant(blocks), PowerAccountant(blocks)
    for acc in (stepped, spanned):
        acc.observe(CycleUsage(cycle=0), lead)
    for i in range(n):
        stepped.observe(CycleUsage(cycle=1 + i), decision)
    spanned.observe_span(CycleUsage(cycle=1), decision, n)
    assert _state(spanned) == _state(stepped)
