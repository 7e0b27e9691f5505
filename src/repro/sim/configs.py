"""Canonical machine configurations from the paper."""

from __future__ import annotations

import os
from typing import Optional

from ..pipeline.config import DEEP_DEPTH, MachineConfig

__all__ = ["baseline_config", "deep_pipeline_config", "default_instructions",
           "instruction_budget", "config_from_tag"]


def baseline_config() -> MachineConfig:
    """The Table 1 processor: 8-way issue, 128-entry window, 64-entry
    LSQ, 6 integer ALUs / 2 integer mul-div / 4 FP ALUs / 4 FP mul-div,
    2-ported 64KB 2-way 2-cycle L1 D-cache, 2MB 8-way 12-cycle L2,
    100-cycle memory, 8-cycle misprediction penalty."""
    return MachineConfig()


def deep_pipeline_config() -> MachineConfig:
    """The §5.6 20-stage machine (same widths and resources)."""
    return MachineConfig(depth=DEEP_DEPTH)


def config_from_tag(tag: str) -> MachineConfig:
    """Machine configuration named by an experiment tag.

    Tags are the grid axes the figures sweep: ``baseline``, ``deep``,
    ``int_alus=N``, ``fu=round-robin``, ``width=N``, ``window=N``,
    ``ports=N``.  Module-level (rather than a runner method) so worker
    processes can rebuild configurations from the tag alone.
    """
    if tag == "baseline":
        return baseline_config()
    if tag == "deep":
        return deep_pipeline_config()
    if tag.startswith("int_alus="):
        return baseline_config().with_int_alus(int(tag.split("=", 1)[1]))
    if tag == "fu=round-robin":
        from dataclasses import replace
        from ..backend.funits import AllocationPolicy
        return replace(baseline_config(),
                       fu_policy=AllocationPolicy.ROUND_ROBIN)
    if tag.startswith("width="):
        from dataclasses import replace
        width = int(tag.split("=", 1)[1])
        return replace(baseline_config(), fetch_width=width,
                       decode_width=width, issue_width=width,
                       commit_width=width, result_buses=width)
    if tag.startswith("window="):
        from dataclasses import replace
        size = int(tag.split("=", 1)[1])
        return replace(baseline_config(), window_size=size,
                       lsq_size=max(8, size // 2))
    if tag.startswith("ports="):
        from dataclasses import replace
        from ..memory.hierarchy import HierarchyConfig
        ports = int(tag.split("=", 1)[1])
        base = baseline_config()
        hier = HierarchyConfig(
            l1i=base.hierarchy.l1i,
            l1d=replace(base.hierarchy.l1d, ports=ports),
            l2=base.hierarchy.l2,
            memory_latency=base.hierarchy.memory_latency,
            bus_bytes=base.hierarchy.bus_bytes)
        return replace(base, hierarchy=hier)
    raise ValueError(f"unknown configuration tag {tag!r}")


def default_instructions(default: int = 8_000) -> int:
    """Per-benchmark instruction budget for experiment runs.

    The paper simulates 500 M instructions per benchmark after a 2 B
    fast-forward; a pure-Python pipeline cannot.  Profiles are
    stationary and caches are pre-warmed, so statistics converge within
    a few thousand cycles.  Override with ``REPRO_SIM_INSTRUCTIONS``
    for longer, higher-fidelity runs.
    """
    value = os.environ.get("REPRO_SIM_INSTRUCTIONS")
    if value is None:
        return default
    count = int(value)
    if count <= 0:
        raise ValueError("REPRO_SIM_INSTRUCTIONS must be positive")
    return count


def instruction_budget(instructions: Optional[int]) -> int:
    """``instructions``, or :func:`default_instructions` when ``None``.

    A budget of zero or less raises ``ValueError`` instead of silently
    falling back to the default.
    """
    if instructions is None:
        return default_instructions()
    if instructions <= 0:
        raise ValueError("instructions must be positive")
    return instructions
