"""Gating-policy interface.

A gating policy plugs into the timing pipeline at two points each cycle:

* :meth:`GatingPolicy.constraints` — *before* the cycle executes, the
  policy may restrict machine resources (PLB's low-power issue modes,
  DCG's optional one-cycle store delay).  The baseline and DCG impose
  no performance-relevant constraints.
* :meth:`GatingPolicy.observe` — *after* the cycle, the policy receives
  the cycle's :class:`~repro.pipeline.usage.CycleUsage` and returns a
  :class:`GateDecision` stating which block-cycles were clock-gated.
  The power accountant turns that into energy.

When the pipeline skips a run of quiescent cycles it calls
:meth:`GatingPolicy.observe_span` once for the whole span instead, and
never skips past :meth:`GatingPolicy.next_constraints_change`.

The contract mirrors the paper's accounting (§4.2): a block that is not
clock-gated in a cycle consumes its full per-cycle power; a gated block
consumes none.

Both per-cycle records are ``__slots__`` classes: one of each crosses
the policy boundary every simulated cycle, so their attribute access is
hot-path work.  A policy whose constraints are constant (or piecewise
constant, like PLB's per-mode settings) may return the *same*
:class:`CycleConstraints` object every cycle — the pipeline treats the
object as read-only and uses its identity to skip redundant
re-application of functional-unit restrictions.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..pipeline.config import MachineConfig
from ..pipeline.usage import CycleUsage
from ..trace.uop import FUClass

__all__ = ["CycleConstraints", "GateDecision", "GatingPolicy"]


class CycleConstraints:
    """Resource restrictions a policy imposes on one cycle."""

    __slots__ = ("issue_width", "rename_width", "dcache_ports",
                 "result_buses", "disabled_fus", "store_extra_delay")

    def __init__(self, issue_width: int, rename_width: int,
                 dcache_ports: int, result_buses: int,
                 disabled_fus: Dict[FUClass, int] = None,
                 store_extra_delay: int = 0) -> None:
        self.issue_width = issue_width
        self.rename_width = rename_width
        self.dcache_ports = dcache_ports
        self.result_buses = result_buses
        self.disabled_fus: Dict[FUClass, int] = (
            {} if disabled_fus is None else disabled_fus)
        #: extra cycles a committing store waits before its cache access
        #: (DCG §3.3 possibility (2): no advance knowledge of stores)
        self.store_extra_delay = store_extra_delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CycleConstraints(issue_width={self.issue_width}, "
                f"rename_width={self.rename_width}, "
                f"dcache_ports={self.dcache_ports}, "
                f"result_buses={self.result_buses}, "
                f"disabled_fus={self.disabled_fus}, "
                f"store_extra_delay={self.store_extra_delay})")


class GateDecision:
    """Block-cycles gated during one cycle, per block family.

    Counts are in *blocks gated this cycle* (an execution unit, a latch
    slot-stage, a D-cache port decoder, a result-bus driver).
    ``issue_queue_gated_fraction`` is PLB's cluster-style issue-queue
    gating; DCG leaves the issue queue alone (§2.2.2).
    """

    __slots__ = ("fu_gated", "latch_gated_slots", "dcache_ports_gated",
                 "result_buses_gated", "issue_queue_gated_fraction",
                 "control_always_on", "fu_toggles")

    def __init__(self, fu_gated: Dict[FUClass, int] = None,
                 latch_gated_slots: int = 0, dcache_ports_gated: int = 0,
                 result_buses_gated: int = 0,
                 issue_queue_gated_fraction: float = 0.0,
                 control_always_on: bool = False,
                 fu_toggles: Dict[FUClass, int] = None) -> None:
        self.fu_gated: Dict[FUClass, int] = (
            {} if fu_gated is None else fu_gated)
        self.latch_gated_slots = latch_gated_slots
        self.dcache_ports_gated = dcache_ports_gated
        self.result_buses_gated = result_buses_gated
        self.issue_queue_gated_fraction = issue_queue_gated_fraction
        #: DCG control circuitry (extended latches) stays clocked
        self.control_always_on = control_always_on
        #: per-class count of execution units whose gate state flipped
        self.fu_toggles: Dict[FUClass, int] = (
            {} if fu_toggles is None else fu_toggles)

    @property
    def fu_toggle_events(self) -> int:
        """Total gate-state flips this cycle across unit classes."""
        return sum(self.fu_toggles.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GateDecision(fu_gated={self.fu_gated}, "
                f"latch_gated_slots={self.latch_gated_slots}, "
                f"dcache_ports_gated={self.dcache_ports_gated}, "
                f"result_buses_gated={self.result_buses_gated})")


class GatingPolicy:
    """Base class for clock-gating methodologies."""

    name = "base"

    #: True when :meth:`constraints` returns the same object for every
    #: cycle — the pipeline may then fetch it once and skip the
    #: per-cycle call.  Policies with time-varying constraints (PLB's
    #: issue modes) must set this False.
    constraints_static = True

    def bind(self, config: MachineConfig) -> None:
        """Attach the machine configuration before simulation starts."""
        self.config = config
        # constraints are constant for the base machine: build them once
        # and hand the same (read-only) object to every cycle
        self._full_machine_constraints = CycleConstraints(
            issue_width=config.issue_width,
            rename_width=config.decode_width,
            dcache_ports=config.dcache_ports,
            result_buses=config.result_buses,
        )

    def constraints(self, cycle: int) -> CycleConstraints:
        """Resource limits for ``cycle`` (full machine by default)."""
        return self._full_machine_constraints

    def observe(self, usage: CycleUsage) -> GateDecision:
        """Gate decision for the cycle just executed (none by default)."""
        return GateDecision()

    def observe_span(self, usage: CycleUsage, n: int) -> GateDecision:
        """Gate decision for ``n`` idle cycles that all look like
        ``usage`` (cycles ``usage.cycle`` to ``usage.cycle + n - 1``).

        The pipeline calls this instead of :meth:`observe` when it skips
        a run of quiescent cycles; the decision returned applies to
        every cycle of the span.  The base class replays :meth:`observe`
        ``n`` times on the same record, which is exact for any policy
        whose idle-cycle decision depends only on the usage record.
        """
        decision = self.observe(usage)
        for _ in range(n - 1):
            decision = self.observe(usage)
        return decision

    def next_constraints_change(self, cycle: int) -> Optional[int]:
        """Earliest cycle after ``cycle`` whose :meth:`constraints` call
        may differ or change policy state, or None for never.  The
        pipeline steps that cycle in full instead of skipping over it;
        a policy with time-varying constraints and no better bound
        disables skipping by returning ``cycle + 1``."""
        return None if self.constraints_static else cycle + 1

    def result_fields(self) -> Dict[str, Any]:
        """Policy-specific :class:`~repro.sim.simulator.SimulationResult`
        fields for the run just finished (none by default)."""
        return {}


class NoGatingPolicy(GatingPolicy):
    """The paper's base case: no clock gating anywhere."""

    name = "base"

    def observe_span(self, usage: CycleUsage, n: int) -> GateDecision:
        # stateless, so one call answers for every cycle of the span
        return self.observe(usage)
