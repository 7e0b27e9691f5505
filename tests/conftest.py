"""Shared fixtures.

Simulation runs are the expensive part of this suite, so results that
many tests inspect are produced once per session through a memoised
:class:`~repro.sim.runner.ExperimentRunner` at a reduced instruction
budget.  The shapes the paper's claims rest on (orderings, zero DCG
performance loss, per-family saving bands) are stable well below the
default budget.

:class:`CycleRecorder` is the suite's one recording observer: tests that
inspect a run cycle by cycle attach it and read :attr:`records` after.
"""

from __future__ import annotations

import pytest

from repro.pipeline import CycleObserver
from repro.sim import ExperimentRunner, ResultCache, Simulator

#: instruction budget for session-scoped simulation fixtures
QUICK_INSTRUCTIONS = 2_500


class CycleRecorder(CycleObserver):
    """Keeps every cycle's ``(usage, decision)`` pair, in cycle order
    (a skipped idle span arrives as one fresh record per cycle)."""

    def __init__(self) -> None:
        self.records = []

    def observe(self, usage, decision) -> None:
        self.records.append((usage, decision))

    @property
    def usages(self):
        return [usage for usage, _decision in self.records]

    @property
    def decisions(self):
        return [decision for _usage, decision in self.records]


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Session-wide memoising experiment runner (small runs).

    The disk cache is explicitly disabled so the suite is hermetic even
    when the developer has ``REPRO_CACHE_DIR`` exported.
    """
    return ExperimentRunner(instructions=QUICK_INSTRUCTIONS,
                            cache=ResultCache(""))


@pytest.fixture(scope="session")
def simulator() -> Simulator:
    """Baseline-configuration simulator."""
    return Simulator()
