"""Wrong-path execution modeling (config.model_wrong_path)."""

import pytest

from repro.core import DCGPolicy, NoGatingPolicy
from repro.pipeline import InvariantChecker, MachineConfig, Pipeline
from repro.trace import TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile


def _run(wrong_path, benchmark="gcc", n=4000, policy=None):
    config = MachineConfig(model_wrong_path=wrong_path)
    generator = SyntheticTraceGenerator(get_profile(benchmark))
    pipe = Pipeline(config, TraceStream(iter(generator), limit=n),
                    policy or NoGatingPolicy())
    generator.prewarm(pipe.hierarchy)
    checker = InvariantChecker(config)
    pipe.add_observer(checker)
    stats = pipe.run(max_instructions=n)
    return pipe, stats, checker


def test_disabled_by_default():
    __, stats, __ = _run(False)
    assert stats.wrong_path_fetched == 0
    assert stats.wrong_path_squashed == 0


def test_wrong_path_fetches_and_squashes():
    __, stats, __ = _run(True)
    assert stats.mispredicts > 0
    assert stats.wrong_path_fetched > 0
    assert stats.wrong_path_squashed > 0
    # everything dispatched down the wrong path must have been squashed
    assert stats.wrong_path_squashed <= stats.wrong_path_fetched


def test_architectural_results_unchanged():
    """Wrong-path work is performance/power modelling only: the same
    real instructions commit, in the same order."""
    __, off, __ = _run(False)
    __, on, __ = _run(True)
    assert on.committed == off.committed
    assert on.commit_class_counts == off.commit_class_counts
    assert on.mispredicts == off.mispredicts


def test_invariants_hold_with_wrong_path():
    __, __, checker = _run(True)
    assert checker.clean


def test_dcg_determinism_survives_wrong_path():
    """GRANTs for wrong-path ops are issue-time signals like any other;
    DCG's grant-calendar verification must stay silent."""
    __, stats, checker = _run(True, policy=DCGPolicy(verify=True))
    assert stats.committed == 4000
    assert checker.clean


def test_wrong_path_reduces_dcg_saving_slightly():
    """Wrong-path ops occupy gateable blocks before being squashed, so
    modelling them can only shrink DCG's saving, and only a little."""
    from repro.power import BlockPowers, PowerAccountant

    def saving(wrong_path):
        config = MachineConfig(model_wrong_path=wrong_path)
        generator = SyntheticTraceGenerator(get_profile("gcc"))
        pipe = Pipeline(config, TraceStream(iter(generator), limit=5000),
                        DCGPolicy())
        generator.prewarm(pipe.hierarchy)
        accountant = PowerAccountant(BlockPowers(config))
        pipe.add_observer(accountant)
        pipe.run(max_instructions=5000)
        return accountant.total_saving_fraction

    off, on = saving(False), saving(True)
    assert on <= off
    assert off - on < 0.02   # the deviation the approximation introduces


def test_performance_impact_is_small():
    __, off, __ = _run(True, benchmark="gzip")
    __, on, __ = _run(False, benchmark="gzip")
    ratio = off.cycles / on.cycles
    assert 0.95 < ratio < 1.10
