"""Interval sampling: plan arithmetic, aggregation, resume
bit-identity, and statistical agreement with full runs."""

import math
import pickle

import pytest

from repro.sim import (CheckpointStore, SampledRun, SampleSpec,
                       SimulationInterrupted, Simulator, run_sampled_spec)
from repro.sim.cache import result_to_dict
from repro.sim.checkpoint import (CHECKPOINT_DIR_ENV_VAR,
                                  spec_checkpoint_key)
from repro.sim.parallel import RunSpec, simulate_spec
from repro.sim.runner import ExperimentRunner

INSTRUCTIONS = 4_000
SAMPLE = "4x500"


@pytest.fixture(autouse=True)
def _no_inherited_checkpoint_env(monkeypatch):
    monkeypatch.delenv(CHECKPOINT_DIR_ENV_VAR, raising=False)


def _spec(**kwargs) -> RunSpec:
    kwargs.setdefault("instructions", INSTRUCTIONS)
    kwargs.setdefault("sample", SAMPLE)
    return RunSpec("baseline", "gzip", "dcg", **kwargs)


class StopAfter:
    def __init__(self, polls: int) -> None:
        self.polls = polls
        self.seen = 0

    def is_set(self) -> bool:
        self.seen += 1
        return self.seen > self.polls


# -- SampleSpec -------------------------------------------------------------

def test_parse_and_str_roundtrip():
    spec = SampleSpec.parse("8x2000")
    assert (spec.windows, spec.length) == (8, 2000)
    assert str(spec) == "8x2000"
    assert spec.measured == 16_000


@pytest.mark.parametrize("text", ["8", "x", "8x", "x8", "ax5", "8x2x1",
                                  "8 x 2000x"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError, match="sample spec"):
        SampleSpec.parse(text)


def test_one_window_rejected():
    with pytest.raises(ValueError, match="at least 2 windows"):
        SampleSpec(windows=1, length=100)


def test_zero_length_rejected():
    with pytest.raises(ValueError, match="positive"):
        SampleSpec(windows=4, length=0)


def test_validate_window_must_fit_interval():
    SampleSpec(windows=4, length=250).validate(1000)       # exactly fits
    with pytest.raises(ValueError, match="does not fit"):
        SampleSpec(windows=4, length=251).validate(1000)


def test_plan_covers_budget_with_remainder_in_last_skip():
    plan = SampleSpec(windows=3, length=100).plan(1001)
    assert sum(skip + length for skip, length in plan) == 1001
    assert [length for _, length in plan] == [100, 100, 100]
    assert plan[0] == (233, 100)
    assert plan[-1] == (233 + 2, 100)   # 1001 - 3*333 extends last skip


# -- aggregation / driver ---------------------------------------------------

def test_sampled_result_shape():
    result = SampledRun("gzip", "dcg", INSTRUCTIONS, SAMPLE).run()
    assert result.sample == SAMPLE
    assert result.instructions == INSTRUCTIONS
    assert result.sampled_instructions == 4 * 500
    assert result.stats.committed == result.sampled_instructions
    assert set(result.confidence) == {"ipc", "average_power",
                                      "total_saving"}
    for lo, hi in result.confidence.values():
        assert lo <= hi
    # cycles is the estimated full-length count, not the measured one
    assert result.cycles == round(INSTRUCTIONS / result.ipc)
    assert 0.0 < result.total_saving < 1.0


def test_sampled_serialization_roundtrip():
    result = SampledRun("gzip", "dcg", INSTRUCTIONS, SAMPLE).run()
    data = result_to_dict(result)
    assert data["sample"] == SAMPLE
    assert "confidence" in data
    from repro.sim.cache import result_from_dict
    assert result_to_dict(result_from_dict(data)) == data


def test_full_run_serialization_has_no_sampling_keys():
    """Full runs must serialise exactly as before sampling existed —
    the golden invariance and old cache entries depend on it."""
    result = Simulator().run_benchmark("gzip", "dcg", 700)
    data = result_to_dict(result)
    assert "sample" not in data
    assert "confidence" not in data
    assert "sampled_instructions" not in data


def test_ci_brackets_full_run_saving():
    """The acceptance property at test scale: the sampled DCG-saving
    confidence interval brackets the full run's value."""
    sampled = SampledRun("gzip", "dcg", INSTRUCTIONS, SAMPLE).run()
    full = Simulator().run_benchmark("gzip", "dcg", INSTRUCTIONS)
    lo, hi = sampled.confidence["total_saving"]
    assert not math.isnan(lo) and not math.isnan(hi)
    assert lo <= full.total_saving <= hi
    assert abs(sampled.total_saving - full.total_saving) < 0.05


def test_resume_mid_run_is_bit_identical():
    reference = SampledRun("gzip", "dcg", INSTRUCTIONS, SAMPLE).run()
    paused = SampledRun("gzip", "dcg", INSTRUCTIONS, SAMPLE)
    paused.run_window()
    paused.run_window()
    frozen = pickle.dumps(paused.state())
    del paused
    resumed = SampledRun.resume(pickle.loads(frozen))
    assert resumed.next_window == 2
    result = resumed.run()
    assert result_to_dict(result) == result_to_dict(reference)


def test_run_sampled_spec_interrupt_then_resume(tmp_path):
    store = CheckpointStore(str(tmp_path / "ckpt"))
    spec = _spec()
    key = spec_checkpoint_key(spec)

    uninterrupted = run_sampled_spec(_spec(), store=CheckpointStore())
    with pytest.raises(SimulationInterrupted):
        run_sampled_spec(spec, store=store, stop=StopAfter(2))
    assert store.peek(key) == {"window": 2, "windows": 4,
                               "kind": "sampled"}

    resumed = run_sampled_spec(spec, store=store)
    assert store.loads == 1
    assert result_to_dict(resumed) == result_to_dict(uninterrupted)
    assert store.peek(key) is None      # discarded on completion


def test_simulate_spec_routes_sampled():
    via_spec = simulate_spec(_spec())
    direct = SampledRun("gzip", "dcg", INSTRUCTIONS, SAMPLE).run()
    assert result_to_dict(via_spec) == result_to_dict(direct)


def test_runner_validates_sample_up_front():
    ExperimentRunner(instructions=INSTRUCTIONS, sample=SAMPLE)
    with pytest.raises(ValueError, match="does not fit"):
        ExperimentRunner(instructions=100, sample="4x500")
    with pytest.raises(ValueError, match="sample spec"):
        ExperimentRunner(instructions=INSTRUCTIONS, sample="banana")


@pytest.mark.parametrize("instructions", [0, -5])
def test_sampled_run_rejects_non_positive_budget(instructions):
    # 0 used to fall back silently to the default budget
    with pytest.raises(ValueError, match="instructions must be positive"):
        SampledRun("gzip", "dcg", instructions, "2x10")
