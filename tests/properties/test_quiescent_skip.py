"""Quiescent-cycle skipping changes nothing a run reports.

The cycle core jumps its clock over idle spans (DESIGN.md §14.3).  For
any benchmark, built-in policy, seed and machine perturbation, a run
with skipping on must equal the same run stepped cycle by cycle: the
same serialised result (cycles, IPC, every energy down to the last ulp,
PLB mode cycles, DCG toggles), the same per-cycle usage stream, power
trace and histograms, and a silent
:class:`~repro.pipeline.verification.InvariantChecker` on both.  Every
built-in observer is attached, so each one's span handling is checked
through the observer protocol.
"""

import pickle
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.histograms import CycleHistograms
from repro.pipeline import MachineConfig, core
from repro.pipeline.verification import InvariantChecker
from repro.power.budget import BlockPowers, PowerCalibration
from repro.power.tracing import PowerTraceRecorder
from repro.sim.cache import result_to_dict
from repro.sim.checkpoint import PausableRun
from repro.sim.configs import config_from_tag
from repro.sim.simulator import (BUILTIN_POLICIES, assemble_run,
                                 build_result, make_policy)
from repro.trace import TraceStream
from repro.workloads import SPEC2000, SyntheticTraceGenerator, get_profile

from ..conftest import CycleRecorder
from ..integration.test_usage_golden import usage_stream_sha256

INSTRUCTIONS = 1200


@contextmanager
def skipping(enabled):
    saved = core.SKIP_QUIESCENT
    core.SKIP_QUIESCENT = enabled
    try:
        yield
    finally:
        core.SKIP_QUIESCENT = saved


def _run(benchmark, policy, seed, config):
    """Serialised result, per-cycle usage digest, power trace and
    histograms of one run."""
    generator = SyntheticTraceGenerator(get_profile(benchmark), seed=seed)
    policy_obj = make_policy(policy)
    blocks = BlockPowers(config, PowerCalibration())
    checker = InvariantChecker(config)
    recorder = CycleRecorder()
    trace = PowerTraceRecorder(blocks)
    histograms = CycleHistograms()
    pipe, accountant = assemble_run(
        config, TraceStream(iter(generator), limit=INSTRUCTIONS),
        policy_obj, blocks, prewarm=generator,
        observers=(checker, recorder, trace, histograms))
    stats = pipe.run(max_instructions=INSTRUCTIONS)
    assert checker.clean and checker.cycles_checked == stats.cycles
    assert trace.cycles == histograms.cycles == stats.cycles
    result = build_result(benchmark, policy_obj, accountant, stats)
    return (result_to_dict(result), usage_stream_sha256(recorder.usages),
            trace.samples, histograms.summary())


@st.composite
def machines(draw):
    """The baseline machine or one perturbation of it."""
    base = MachineConfig()
    kind = draw(st.sampled_from(
        ("baseline", "wrong-path", "buses", "window", "deep", "width")))
    if kind == "wrong-path":
        return replace(base, model_wrong_path=True)
    if kind == "buses":
        return replace(base, result_buses=draw(st.integers(1, 2)))
    if kind == "window":
        size = draw(st.sampled_from((32, 64, 96, 128)))
        return replace(base, window_size=size, lsq_size=max(8, size // 2))
    return config_from_tag("deep" if kind == "deep" else "width=4")


@settings(max_examples=14, deadline=None, derandomize=True)
@given(program=st.sampled_from(sorted(SPEC2000)),
       policy=st.sampled_from(BUILTIN_POLICIES),
       seed=st.integers(0, 2 ** 16), config=machines())
def test_skipping_matches_cycle_by_cycle(program, policy, seed, config):
    with skipping(False):
        stepped = _run(program, policy, seed, config)
    with skipping(True):
        skipped = _run(program, policy, seed, config)
    assert skipped == stepped


@pytest.mark.parametrize("program,policy", [("mcf", "dcg"),
                                            ("lucas", "plb-ext")])
def test_checkpoint_cut_and_resume_with_skipping(program, policy):
    """A run cut mid-way, pickled, and resumed with skipping on equals
    the uninterrupted run stepped cycle by cycle."""
    with skipping(False):
        whole = PausableRun(program, policy, 2000)
        whole.advance()
        expected = result_to_dict(whole.result())
    with skipping(True):
        run = PausableRun(program, policy, 2000)
        run.advance(700)
        run = PausableRun.resume(pickle.loads(pickle.dumps(run.state())))
        run.advance()
        assert result_to_dict(run.result()) == expected


def test_add_observer_rejects_a_plain_callable():
    """Observers declare the protocol; a bare function would have no
    span method for the core to call."""
    pipe = core.Pipeline(MachineConfig(), TraceStream(iter(())),
                         make_policy("base"))
    with pytest.raises(TypeError, match="CycleObserver"):
        pipe.add_observer(lambda usage, decision: None)
    assert pipe.observers == []


def test_watchdog_fires_at_the_same_cycle(monkeypatch):
    """A machine that stops committing raises at the very cycle the
    cycle-by-cycle run would, even when the stall is one long skip."""
    monkeypatch.setattr(core, "_DEADLOCK_LIMIT", 60)
    messages = []
    for enabled in (False, True):
        generator = SyntheticTraceGenerator(get_profile("mcf"), seed=0)
        pipe = core.Pipeline(MachineConfig(),
                             TraceStream(iter(generator), limit=2000),
                             make_policy("dcg"))
        generator.prewarm(pipe.hierarchy)
        with skipping(enabled), pytest.raises(RuntimeError,
                                              match="deadlock") as info:
            pipe.run(max_instructions=2000)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
