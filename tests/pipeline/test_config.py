"""Machine and depth configuration."""

import pytest

from repro.pipeline import BASELINE_DEPTH, DEEP_DEPTH, DepthConfig, MachineConfig
from repro.sim.configs import config_from_tag
from repro.trace import FUClass


def test_baseline_is_8_stage():
    assert BASELINE_DEPTH.total_stages == 8
    assert BASELINE_DEPTH.gated_latch_stages == 5
    assert BASELINE_DEPTH.ungated_latch_stages == 3
    # the paper's timing: select at X, execute at X+2, D-cache at X+3
    assert BASELINE_DEPTH.issue_to_execute == 2
    assert BASELINE_DEPTH.issue_to_mem == 3


def test_deep_is_20_stage():
    assert DEEP_DEPTH.total_stages == 20
    assert (DEEP_DEPTH.gated_latch_stages
            + DEEP_DEPTH.ungated_latch_stages) == 20
    # deeper pipelines gate a larger share of their latches (§5.6)
    deep_frac = DEEP_DEPTH.gated_latch_stages / DEEP_DEPTH.total_stages
    base_frac = BASELINE_DEPTH.gated_latch_stages / BASELINE_DEPTH.total_stages
    assert deep_frac >= base_frac


def test_depth_validation():
    with pytest.raises(ValueError):
        DepthConfig(fetch=0)


def test_table1_machine_defaults():
    config = MachineConfig()
    assert config.issue_width == 8
    assert config.window_size == 128
    assert config.lsq_size == 64
    assert config.fu_counts[FUClass.INT_ALU] == 6
    assert config.fu_counts[FUClass.INT_MULT] == 2
    assert config.fu_counts[FUClass.FP_ALU] == 4
    assert config.fu_counts[FUClass.FP_MULT] == 4
    assert config.dcache_ports == 2
    assert config.result_buses == 8


def test_with_int_alus():
    config = MachineConfig().with_int_alus(4)
    assert config.fu_counts[FUClass.INT_ALU] == 4
    # other classes untouched; original unmodified
    assert config.fu_counts[FUClass.FP_ALU] == 4
    assert MachineConfig().fu_counts[FUClass.INT_ALU] == 6


def test_with_depth():
    config = MachineConfig().with_depth(DEEP_DEPTH)
    assert config.depth.total_stages == 20


def test_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(issue_width=0)
    with pytest.raises(ValueError):
        MachineConfig(mispredict_redirect=-1)


def test_fu_counts_below_one_rejected():
    # zero units deadlocked the core; a negative count crashed inside it
    for tag in ("int_alus=0", "int_alus=-2"):
        with pytest.raises(ValueError,
                           match="INT_ALU unit count must be >= 1"):
            config_from_tag(tag)
    with pytest.raises(ValueError, match="FP_MULT"):
        MachineConfig(fu_counts={**MachineConfig().fu_counts,
                                 FUClass.FP_MULT: 0})
