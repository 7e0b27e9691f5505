"""Functional-unit tables and the core's allocator (Pipeline._allocate)."""

import pytest

from repro.backend import AllocationPolicy, DEFAULT_FU_COUNTS, FU_LATENCY
from repro.core import CycleConstraints, NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.trace import FUClass, MicroOp, OpClass, TraceStream

_ALU = int(FUClass.INT_ALU)
_MULT = int(FUClass.INT_MULT)
_FP_ALU = int(FUClass.FP_ALU)
_FP_MULT = int(FUClass.FP_MULT)


class _DisablingPolicy(NoGatingPolicy):
    """Full machine minus the highest-index units named in ``disabled``,
    the way PLB's narrow modes withhold them."""

    def __init__(self, disabled):
        self.disabled = disabled

    def bind(self, config):
        super().bind(config)
        self._cons = CycleConstraints(
            config.issue_width, config.decode_width, config.dcache_ports,
            config.result_buses, disabled_fus=self.disabled)

    def constraints(self, cycle):
        return self._cons


def _idle_pipe(config=None):
    return Pipeline(config or MachineConfig(), TraceStream([]),
                    NoGatingPolicy())


def _disabled_pipe(disabled, n_ops=10):
    """A pipeline over n independent ALU ops with an I-cache preloaded,
    withholding the units named in ``disabled``."""
    ops = [MicroOp(i, 0x1000 + 4 * i, OpClass.IALU, dest=4 + i % 20)
           for i in range(n_ops)]
    pipe = Pipeline(MachineConfig(), TraceStream(ops),
                    _DisablingPolicy(disabled))
    for op in ops:
        pipe.hierarchy.l1i.preload(op.pc)
    return pipe


def test_default_counts_match_table1():
    assert DEFAULT_FU_COUNTS[FUClass.INT_ALU] == 6
    assert DEFAULT_FU_COUNTS[FUClass.INT_MULT] == 2
    assert DEFAULT_FU_COUNTS[FUClass.FP_ALU] == 4
    assert DEFAULT_FU_COUNTS[FUClass.FP_MULT] == 4
    assert DEFAULT_FU_COUNTS[FUClass.MEM_PORT] == 2
    assert sum(DEFAULT_FU_COUNTS.values()) == 18


def test_latency_table_covers_all_op_classes():
    for op_class in OpClass:
        assert op_class in FU_LATENCY


def test_sequential_priority_prefers_lowest_index():
    pipe = _idle_pipe()
    assert pipe._allocate(_ALU, OpClass.IALU, 10) == 0
    assert pipe._allocate(_ALU, OpClass.IALU, 10) == 1
    # next cycle unit 0 is free again and must be chosen first
    assert pipe._allocate(_ALU, OpClass.IALU, 11) == 0


def test_round_robin_rotates():
    pipe = _idle_pipe(MachineConfig(fu_policy=AllocationPolicy.ROUND_ROBIN))
    assert [pipe._allocate(_ALU, OpClass.IALU, cycle)
            for cycle in (10, 11, 12)] == [0, 1, 2]


def test_allocation_exhaustion():
    pipe = _idle_pipe(MachineConfig().with_int_alus(2))
    assert [pipe._allocate(_ALU, OpClass.IALU, 5)
            for _ in range(3)] == [0, 1, -1]
    assert pipe._allocate(_ALU, OpClass.IALU, 6) == 0


def test_pipelined_unit_accepts_next_cycle():
    pipe = _idle_pipe()
    # a 4-cycle pipelined multiply takes a new op on the next cycle
    assert pipe._allocate(_FP_MULT, OpClass.FPMUL, 10) == 0
    assert pipe._allocate(_FP_MULT, OpClass.FPMUL, 11) == 0


def test_unpipelined_divide_blocks():
    pipe = _idle_pipe()
    # a 20-cycle unpipelined divide holds its unit through cycle 29
    assert pipe._allocate(_MULT, OpClass.IDIV, 10) == 0
    for cycle in (15, 29):
        assert pipe._allocate(_MULT, OpClass.IMUL, cycle) == 1
        assert pipe._allocate(_MULT, OpClass.IMUL, cycle) == -1
    assert pipe._allocate(_MULT, OpClass.IMUL, 30) == 0


def test_disable_removes_highest_index():
    pipe = _disabled_pipe({FUClass.INT_ALU: 3}, n_ops=300)
    used = set()
    pipe.add_observer(lambda usage, _decision: used.update(
        i for i, on in enumerate(usage.fu_active[FUClass.INT_ALU]) if on))
    pipe.run()
    assert used == {0, 1, 2}
    # allocation never lands on a withheld unit
    cycle = pipe.cycle + 100
    assert [pipe._allocate(_ALU, OpClass.IALU, cycle)
            for _ in range(4)] == [0, 1, 2, -1]


def test_disable_all_blocks_class():
    pipe = _disabled_pipe({FUClass.FP_ALU: 4})
    pipe.run()
    assert pipe._allocate(_FP_ALU, OpClass.FPALU, pipe.cycle + 100) == -1


def test_disable_validation():
    pipe = _disabled_pipe({FUClass.INT_ALU: 7})
    with pytest.raises(ValueError, match="cannot disable 7 of 6 INT_ALU"):
        pipe.run()
