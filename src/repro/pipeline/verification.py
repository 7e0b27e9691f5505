"""Runtime invariant checking for pipeline runs.

:class:`InvariantChecker` is a pipeline observer that validates every
cycle's usage record and gate decision against the machine's capacity
limits and the gating policies' contracts.  It is cheap enough to leave
attached during experiments and turns silent modelling corruption into
an immediate, located failure.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.interface import GateDecision
from ..trace.uop import FUClass
from .config import MachineConfig
from .usage import CycleObserver, CycleUsage

__all__ = ["InvariantChecker", "InvariantViolation"]

_EXEC_CLASSES = (FUClass.INT_ALU, FUClass.INT_MULT,
                 FUClass.FP_ALU, FUClass.FP_MULT)


class InvariantViolation(AssertionError):
    """A per-cycle capacity or gating invariant failed."""


class InvariantChecker(CycleObserver):
    """Attach with ``pipeline.add_observer(checker)``; it checks every
    cycle of a skipped idle span one record at a time.

    Parameters
    ----------
    config:
        The machine configuration the run uses.
    raise_on_violation:
        When ``False``, violations are collected in :attr:`violations`
        instead of raised (useful for post-mortem reporting).
    """

    def __init__(self, config: MachineConfig,
                 raise_on_violation: bool = True) -> None:
        self.config = config
        self.raise_on_violation = raise_on_violation
        self.violations: List[Tuple[int, str]] = []
        self.cycles_checked = 0

    def _fail(self, cycle: int, message: str) -> None:
        self.violations.append((cycle, message))
        if self.raise_on_violation:
            raise InvariantViolation(f"cycle {cycle}: {message}")

    def observe(self, usage: CycleUsage, decision: GateDecision) -> None:
        cfg = self.config
        c = usage.cycle
        self.cycles_checked += 1

        # machine capacities
        if usage.issued > cfg.issue_width:
            self._fail(c, f"issued {usage.issued} > width {cfg.issue_width}")
        if usage.committed > cfg.commit_width:
            self._fail(c, f"committed {usage.committed} > "
                          f"commit width {cfg.commit_width}")
        if usage.window_occupancy > cfg.window_size:
            self._fail(c, f"window {usage.window_occupancy} > "
                          f"{cfg.window_size}")
        if usage.lsq_occupancy > cfg.lsq_size:
            self._fail(c, f"LSQ {usage.lsq_occupancy} > {cfg.lsq_size}")
        if usage.dcache_ports_used > cfg.dcache_ports:
            self._fail(c, f"D-cache ports {usage.dcache_ports_used} > "
                          f"{cfg.dcache_ports}")
        if usage.result_bus_used > cfg.result_buses:
            self._fail(c, f"result buses {usage.result_bus_used} > "
                          f"{cfg.result_buses}")

        # per-class unit activity within instance counts
        for fu_class in _EXEC_CLASSES:
            mask = usage.fu_active.get(fu_class, ())
            if len(mask) != cfg.fu_counts.get(fu_class, 0):
                self._fail(c, f"{fu_class.name} mask size {len(mask)} != "
                              f"count {cfg.fu_counts.get(fu_class, 0)}")

        # gate decisions must never gate a block that is in use
        for fu_class, gated in decision.fu_gated.items():
            used = usage.fu_used_count(fu_class)
            count = cfg.fu_counts.get(fu_class, 0)
            if gated < 0 or gated + used > count:
                self._fail(c, f"{fu_class.name}: gated {gated} + used "
                              f"{used} exceeds {count}")
        gated_capacity = (cfg.depth.gated_latch_stages * cfg.issue_width
                          + (cfg.depth.ungated_latch_stages
                             * cfg.issue_width))
        used_slots = sum(usage.latch_slots.values())
        if decision.latch_gated_slots + used_slots > gated_capacity:
            self._fail(c, f"latch slots gated {decision.latch_gated_slots} "
                          f"+ used {used_slots} exceed {gated_capacity}")
        if (decision.dcache_ports_gated + usage.dcache_ports_used
                > cfg.dcache_ports):
            self._fail(c, "D-cache decoder gated while in use")
        if (decision.result_buses_gated + usage.result_bus_used
                > cfg.result_buses):
            self._fail(c, "result bus gated while in use")
        if not 0.0 <= decision.issue_queue_gated_fraction <= 1.0:
            self._fail(c, "issue-queue gated fraction out of [0, 1]")

    @property
    def clean(self) -> bool:
        return not self.violations
