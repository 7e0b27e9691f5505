"""Latch slot accounting: delayed one-hot semantics (§3.2).

The paper's latch gating rides a one-hot encoding of the issue count
down the pipe at fixed delays; the pipeline's usage records must obey
exactly that timing, or DCG's gating would be wrong.
"""

from repro.core import NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.pipeline.config import DepthConfig
from repro.trace import MicroOp, OpClass, TraceStream

from ..conftest import CycleRecorder


def _independent(n):
    return [MicroOp(i, 0x1000 + 4 * i, OpClass.IALU, dest=4 + i % 20)
            for i in range(n)]


def _record_run(ops, config=None):
    pipe = Pipeline(config or MachineConfig(), TraceStream(ops),
                    NoGatingPolicy())
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)
    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    pipe.run()
    return recorder.usages


def test_regread_slots_are_issue_delayed_by_one():
    records = _record_run(_independent(100))
    issued = {u.cycle: u.issued for u in records}
    for usage in records:
        expected = issued.get(usage.cycle - 1, 0)
        assert usage.latch_slots["regread"] == expected, usage.cycle


def test_execute_and_mem_follow_at_plus2_plus3():
    records = _record_run(_independent(100))
    issued = {u.cycle: u.issued for u in records}
    for usage in records:
        assert usage.latch_slots["execute"] == issued.get(usage.cycle - 2, 0)
        assert usage.latch_slots["mem"] == issued.get(usage.cycle - 3, 0)


def test_rename_slots_equal_dispatch():
    records = _record_run(_independent(60))
    for usage in records:
        assert usage.latch_slots["rename"] == usage.dispatched


def test_writeback_slots_equal_bus_writers():
    records = _record_run(_independent(60))
    for usage in records:
        assert usage.latch_slots["writeback"] == usage.result_bus_used


def test_slots_never_exceed_capacity():
    records = _record_run(_independent(300))
    width = MachineConfig().issue_width
    for usage in records:
        for stage, slots in usage.latch_slots.items():
            assert 0 <= slots <= width, (usage.cycle, stage)


def test_deep_pipeline_multiplies_segments():
    depth = DepthConfig(regread=2, mem=3)
    config = MachineConfig(depth=depth)
    records = _record_run(_independent(100), config)
    issued = {u.cycle: u.issued for u in records}
    for usage in records:
        # two regread latches: delayed by 1 and by 2
        expected_rf = (issued.get(usage.cycle - 1, 0)
                       + issued.get(usage.cycle - 2, 0))
        assert usage.latch_slots["regread"] == expected_rf
        # three mem latches behind regread(2) + execute(1)
        base = 3
        expected_mem = sum(issued.get(usage.cycle - base - d, 0)
                           for d in (1, 2, 3))
        assert usage.latch_slots["mem"] == expected_mem
