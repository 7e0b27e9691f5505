"""Out-of-order pipeline timing behaviour on crafted traces."""

import pytest

from repro.core import NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.pipeline.config import DEEP_DEPTH
from repro.trace import MicroOp, OpClass, TraceStream

from ..conftest import CycleRecorder


def _ops_independent(n, op_class=OpClass.IALU, start_pc=0x1000):
    """n operations with no register dependences (distinct dests)."""
    return [MicroOp(i, start_pc + 4 * i, op_class,
                    dest=4 + (i % 20)) for i in range(n)]


def _ops_chain(n, start_pc=0x1000):
    """n serially dependent single-cycle ALU ops."""
    ops = [MicroOp(0, start_pc, OpClass.IALU, dest=4)]
    for i in range(1, n):
        ops.append(MicroOp(i, start_pc + 4 * i, OpClass.IALU,
                           srcs=(4 + (i - 1) % 20,), dest=4 + i % 20))
    return ops


def _warm_icache(pipe, ops):
    """Preload every instruction line (tests target data-path timing,
    not compulsory I-cache misses)."""
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)


def _run(ops, config=None):
    pipe = Pipeline(config or MachineConfig(), TraceStream(ops),
                    NoGatingPolicy())
    _warm_icache(pipe, ops)
    stats = pipe.run()
    return pipe, stats


def test_all_instructions_commit():
    __, stats = _run(_ops_independent(200))
    assert stats.committed == 200


def test_independent_ops_reach_high_ipc():
    __, stats = _run(_ops_independent(400))
    # 8-wide machine, no dependences: issue is ALU-bound (6 int ALUs)
    assert stats.ipc > 4.0


def test_serial_chain_is_ipc_one():
    __, stats = _run(_ops_chain(300))
    # one op per cycle plus pipeline fill
    assert stats.cycles >= 300
    assert stats.ipc == pytest.approx(1.0, abs=0.1)


def test_six_alu_structural_limit():
    __, stats = _run(_ops_independent(600))
    # 6 integer ALUs bound issue of an all-IALU trace
    assert stats.ipc <= 6.0 + 1e-9


def test_int_mult_structural_limit():
    __, stats = _run(_ops_independent(100, op_class=OpClass.IMUL))
    # only 2 integer multiply units
    assert stats.ipc <= 2.0 + 1e-9
    assert stats.ipc > 1.0


def test_unpipelined_divides_serialise():
    __, stats = _run(_ops_independent(20, op_class=OpClass.IDIV))
    # 20-cycle unpipelined divides on 2 units: >= 20*20/2 cycles
    assert stats.cycles >= 20 * 20 / 2


def test_dcache_port_limit():
    ops = [MicroOp(i, 0x1000 + 4 * i, OpClass.LOAD, dest=4 + i % 20,
                   mem_addr=0x100000 + 8 * i) for i in range(300)]
    pipe, stats = _run(ops)
    # 2 ports bound load issue
    assert stats.ipc <= 2.0 + 1e-9
    assert pipe.totals.dcache_port_cycles == 300


def test_load_use_latency_hit():
    config = MachineConfig()
    # warm the line, then measure a dependent pair far from warmup
    ops = []
    ops.append(MicroOp(0, 0x1000, OpClass.LOAD, dest=4, mem_addr=0x100000))
    ops.extend(MicroOp(1 + i, 0x1010 + 4 * i, OpClass.IALU, dest=10 + i % 5)
               for i in range(20))
    pipe, stats = _run(ops, config)
    assert stats.committed == 21


def test_cold_load_costs_memory_latency():
    # chain through a cold load: total cycles must absorb ~100 cycles
    ops = [
        MicroOp(0, 0x1000, OpClass.LOAD, dest=4, mem_addr=0x300000),
        MicroOp(1, 0x1004, OpClass.IALU, srcs=(4,), dest=5),
    ]
    __, stats = _run(ops)
    assert stats.cycles > 100


def test_store_to_load_forwarding():
    ops = [
        MicroOp(0, 0x1000, OpClass.IALU, dest=4),
        MicroOp(1, 0x1004, OpClass.STORE, srcs=(0, 4), mem_addr=0x100000),
        MicroOp(2, 0x1008, OpClass.LOAD, dest=5, mem_addr=0x100000),
        MicroOp(3, 0x100C, OpClass.IALU, srcs=(5,), dest=6),
    ]
    pipe, stats = _run(ops)
    assert stats.committed == 4
    assert stats.forwarded_loads == 1
    # forwarding avoids the cold-miss latency of that address
    assert stats.cycles < 60


def test_load_waits_for_unissued_older_store():
    """A load to an address written by an older not-yet-issued store
    must not issue before the store does."""
    # the store's data comes from a long dependence chain
    ops = _ops_chain(40)
    chain_dest = 4 + 39 % 20
    ops.append(MicroOp(40, 0x2000, OpClass.STORE, srcs=(0, chain_dest),
                       mem_addr=0x100100))
    ops.append(MicroOp(41, 0x2004, OpClass.LOAD, dest=30,
                       mem_addr=0x100100))
    pipe, stats = _run(ops)
    assert stats.committed == 42
    assert stats.forwarded_loads == 1


def test_mispredicted_branch_costs_cycles():
    """Compare a trace with a never-taken branch (predictable) against
    one whose branch is taken once with a cold BTB (mispredicted)."""
    def trace(taken):
        ops = _ops_independent(40)
        ops.append(MicroOp(40, 0x2000, OpClass.BRANCH, taken=taken,
                           target=0x4000 if taken else None))
        tail_pc = 0x4000 if taken else 0x2004
        ops.extend(MicroOp(41 + i, tail_pc + 4 * i, OpClass.IALU,
                           dest=4 + i % 20) for i in range(40))
        return ops

    __, straight = _run(trace(False))
    __, redirected = _run(trace(True))
    assert redirected.mispredicts == 1
    penalty = redirected.cycles - straight.cycles
    assert 4 <= penalty <= 14   # ~8-cycle penalty at baseline depth


def test_mispredict_penalty_larger_on_deep_pipeline():
    def trace(taken):
        ops = _ops_independent(40)
        ops.append(MicroOp(40, 0x2000, OpClass.BRANCH, taken=taken,
                           target=0x4000 if taken else None))
        tail_pc = 0x4000 if taken else 0x2004
        ops.extend(MicroOp(41 + i, tail_pc + 4 * i, OpClass.IALU,
                           dest=4 + i % 20) for i in range(40))
        return ops

    deep = MachineConfig(depth=DEEP_DEPTH)
    __, straight = _run(trace(False), deep)
    __, redirected = _run(trace(True), deep)
    deep_penalty = redirected.cycles - straight.cycles

    __, s8 = _run(trace(False))
    __, r8 = _run(trace(True))
    base_penalty = r8.cycles - s8.cycles
    assert deep_penalty > base_penalty


def test_correctly_predicted_loop_is_cheap():
    """A tight loop branch becomes predictable after training."""
    ops = []
    seq = 0
    for it in range(60):
        ops.append(MicroOp(seq, 0x1000, OpClass.IALU, dest=4)); seq += 1
        ops.append(MicroOp(seq, 0x1004, OpClass.BRANCH, taken=it < 59,
                           target=0x1000 if it < 59 else None)); seq += 1
    __, stats = _run(ops)
    # after warmup the 2-level predictor + BTB nail the back-edge
    assert stats.mispredict_rate < 0.25


def test_window_occupancy_bounded():
    pipe, __ = _run(_ops_chain(400))
    # chain fills the window; occupancy must never exceed its size
    assert max(pipe.totals.latch_slot_cycles.values()) >= 0
    assert pipe.totals.cycles > 0


def test_lsq_occupancy_bounded():
    ops = [MicroOp(i, 0x1000 + 4 * i, OpClass.STORE, srcs=(0, 4),
                   mem_addr=0x100000 + 8 * (i % 8)) for i in range(200)]
    config = MachineConfig(lsq_size=16)
    pipe = Pipeline(config, TraceStream(ops), NoGatingPolicy())
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    stats = pipe.run()
    assert stats.committed == 200
    assert max(u.lsq_occupancy for u in recorder.usages) <= 16


def test_window_size_respected():
    config = MachineConfig(window_size=16)
    ops = _ops_chain(100)
    pipe = Pipeline(config, TraceStream(ops), NoGatingPolicy())
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    stats = pipe.run()
    assert stats.committed == 100
    assert max(u.window_occupancy for u in recorder.usages) <= 16


def test_commit_width_respected():
    pipe = Pipeline(MachineConfig(), TraceStream(_ops_independent(200)),
                    NoGatingPolicy())
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    pipe.run()
    assert max(u.committed for u in recorder.usages) <= 8


def test_max_instructions_stops_early():
    pipe = Pipeline(MachineConfig(), TraceStream(_ops_independent(500)),
                    NoGatingPolicy())
    stats = pipe.run(max_instructions=100)
    assert 100 <= stats.committed <= 108   # may finish a commit batch


def test_stats_summary_renders():
    __, stats = _run(_ops_independent(50))
    text = stats.summary()
    assert "IPC" in text and "cycles" in text
