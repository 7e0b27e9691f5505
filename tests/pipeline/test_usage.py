"""Per-cycle usage records and running totals."""

from repro.pipeline import CycleUsage, UsageTotals
from repro.trace import FUClass


def test_cycle_usage_defaults():
    usage = CycleUsage(cycle=5)
    assert usage.cycle == 5
    assert usage.dcache_ports_used == 0
    assert usage.fu_used_count(FUClass.INT_ALU) == 0
    assert usage.grants == []


def test_ports_used_sums_loads_and_stores():
    usage = CycleUsage(dcache_load_ports=1, dcache_store_ports=1)
    assert usage.dcache_ports_used == 2


def test_fu_used_count():
    usage = CycleUsage()
    usage.fu_active[FUClass.FP_ALU] = (True, False, True, False)
    assert usage.fu_used_count(FUClass.FP_ALU) == 2


def test_totals_accumulate():
    totals = UsageTotals()
    for i in range(4):
        usage = CycleUsage(cycle=i, issued=2, committed=2, fetched=3)
        usage.fu_active[FUClass.INT_ALU] = (True, True, False, False,
                                            False, False)
        usage.latch_slots["regread"] = 2
        usage.dcache_load_ports = 1
        usage.result_bus_used = 2
        usage.fetch_stalled = (i % 2 == 0)
        totals.add(usage)
    assert totals.cycles == 4
    assert totals.issued == 8
    assert totals.ipc == 2.0
    assert totals.issue_ipc == 2.0
    assert totals.fu_utilization(FUClass.INT_ALU) == 2 / 6
    assert totals.latch_slot_cycles["regread"] == 8
    assert totals.dcache_port_cycles == 4
    assert totals.result_bus_cycles == 8
    assert totals.fetch_stall_cycles == 2


def test_totals_unknown_fu_utilization_zero():
    totals = UsageTotals()
    assert totals.fu_utilization(FUClass.FP_MULT) == 0.0
    assert totals.ipc == 0.0


def test_add_span_equals_repeated_add():
    usage = CycleUsage(cycle=3, issued=2, committed=1, fetched=4,
                       dcache_load_ports=1, result_bus_used=2,
                       fetch_stalled=True)
    usage.fu_active[FUClass.INT_ALU] = (True, False, True)
    usage.latch_slots = {"regread": 2, "execute": 1}
    stepped, spanned = UsageTotals(), UsageTotals()
    for _ in range(7):
        stepped.add(usage)
    spanned.add_span(usage, None, 7)
    for name in UsageTotals.__slots__:
        assert getattr(spanned, name) == getattr(stepped, name)
    rows = [(FUClass.INT_ALU, 2, 3)]
    stepped.add(usage, rows)
    spanned.add_span(usage, rows, 1)
    for name in UsageTotals.__slots__:
        assert getattr(spanned, name) == getattr(stepped, name)
