"""Cycle-level out-of-order superscalar pipeline."""

from .config import BASELINE_DEPTH, DEEP_DEPTH, DepthConfig, MachineConfig
from .core import Pipeline
from .pipetrace import CapturedOp, render_pipetrace
from .stats import SimStats
from .usage import CycleObserver, CycleUsage, UsageTotals
from .verification import InvariantChecker, InvariantViolation

__all__ = [
    "BASELINE_DEPTH",
    "DEEP_DEPTH",
    "CapturedOp",
    "CycleObserver",
    "CycleUsage",
    "DepthConfig",
    "InvariantChecker",
    "InvariantViolation",
    "MachineConfig",
    "Pipeline",
    "render_pipetrace",
    "SimStats",
    "UsageTotals",
]
