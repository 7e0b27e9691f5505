"""Per-cycle power trace recorder."""

import pytest

from repro.core import DCGPolicy, GateDecision, NoGatingPolicy
from repro.pipeline import CycleUsage, MachineConfig, Pipeline
from repro.power import BlockPowers, PowerTraceRecorder
from repro.trace import FUClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile


@pytest.fixture
def blocks():
    return BlockPowers(MachineConfig())


def _feed(recorder, decisions):
    for i, decision in enumerate(decisions):
        recorder.observe(CycleUsage(cycle=i), decision)


def test_constant_power_without_gating(blocks):
    recorder = PowerTraceRecorder(blocks)
    _feed(recorder, [GateDecision()] * 5)
    assert recorder.cycles == 5
    assert recorder.mean_power == pytest.approx(blocks.total)
    assert recorder.max_step() == pytest.approx(0.0, abs=1e-9)


def test_step_reflects_gating_change(blocks):
    recorder = PowerTraceRecorder(blocks)
    gated = GateDecision(fu_gated={FUClass.FP_ALU: 4})
    _feed(recorder, [GateDecision(), gated, GateDecision()])
    drop = 4 * blocks.fu_instance[FUClass.FP_ALU]
    assert recorder.max_step() == pytest.approx(drop)
    assert recorder.min_power == pytest.approx(blocks.total - drop)
    assert recorder.peak_power == pytest.approx(blocks.total)


def test_window_means(blocks):
    recorder = PowerTraceRecorder(blocks)
    _feed(recorder, [GateDecision()] * 10)
    means = recorder.window_means(window=4)
    assert len(means) == 3   # 4 + 4 + 2
    assert all(m == pytest.approx(blocks.total) for m in means)
    with pytest.raises(ValueError):
        recorder.window_means(0)


def test_max_cycles_cap(blocks):
    recorder = PowerTraceRecorder(blocks, max_cycles=3)
    _feed(recorder, [GateDecision()] * 10)
    assert recorder.cycles == 3


def test_step_histogram(blocks):
    recorder = PowerTraceRecorder(blocks)
    gated = GateDecision(latch_gated_slots=30)
    _feed(recorder, [GateDecision(), gated, GateDecision(), gated])
    hist = recorder.step_histogram(bins=4)
    assert len(hist) == 4
    assert sum(count for _, count in hist) == 3   # three transitions
    with pytest.raises(ValueError):
        recorder.step_histogram(0)


def test_empty_trace(blocks):
    recorder = PowerTraceRecorder(blocks)
    assert recorder.mean_power == 0.0
    assert recorder.sparkline() == ""
    assert recorder.step_histogram() == []


def test_on_real_pipeline_run(blocks):
    generator = SyntheticTraceGenerator(get_profile("gzip"))
    pipe = Pipeline(MachineConfig(),
                    TraceStream(iter(generator), limit=1500), DCGPolicy())
    generator.prewarm(pipe.hierarchy)
    recorder = PowerTraceRecorder(blocks)
    pipe.add_observer(recorder)
    pipe.run(max_instructions=1500)
    assert recorder.cycles == pipe.stats.cycles
    assert 0 < recorder.mean_power < blocks.total
    spark = recorder.sparkline(width=40)
    assert 0 < len(spark) <= 40
