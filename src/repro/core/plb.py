"""Pipeline Balancing (PLB) — the paper's predictive baseline.

PLB [Bahar & Manne, ISCA'01] samples instruction issue over fixed
256-cycle windows and predicts the next window's ILP.  When predicted
ILP is low, the machine drops from 8-wide issue to a 6-wide or 4-wide
low-power mode and clock-gates the freed resources for the whole
window.  The paper adapts PLB to its non-clustered 8-wide machine
(§4.3); this module follows that adaptation:

* modes: 8-wide (normal), 6-wide, 4-wide;
* 6-wide disables 1 integer ALU, 1 FP ALU, 1 FP multiplier;
* 4-wide disables half the issue slots, 3 integer ALUs, 1 integer
  multiplier, 2 FP ALUs, 2 FP multipliers, and 1 memory port;
* triggers: window issue IPC (primary), FP issue IPC and mode history
  (secondary, to damp spurious transitions);
* **PLB-orig** gates execution units + a mode-proportional fraction of
  the issue queue (what [1] gated); **PLB-ext** additionally gates
  pipeline latches, one D-cache port decoder (4-wide only), and 2 or 4
  result buses — the same components DCG gates (§4.3).

Because the prediction can be wrong, PLB loses performance when it
under-provisions and loses opportunity when it over-provisions; that
contrast with DCG is the paper's central result.

Per-mode resource settings are constant for a bound configuration, so
:meth:`PLBPolicy.bind` precomputes one :class:`CycleConstraints` object
and one latch-gating table per mode; the per-cycle
:meth:`PLBPolicy.observe` then only walks small prebuilt tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..pipeline.config import MachineConfig
from ..pipeline.usage import CycleUsage
from ..trace.uop import FUClass
from .interface import CycleConstraints, GateDecision, GatingPolicy

__all__ = ["PLBPolicy", "PLBTriggerConfig", "MODE_RESOURCES"]


@dataclass(frozen=True)
class PLBTriggerConfig:
    """Trigger thresholds (window issue-IPC boundaries).

    A window whose issue IPC falls below ``ipc_4wide`` votes for the
    4-wide mode; below ``ipc_6wide`` votes for 6-wide; otherwise
    8-wide.  A window with FP issue IPC above ``fp_ipc_guard`` never
    votes below 6-wide (the secondary trigger: FP work needs the FP
    cluster).  Stepping *down* requires ``history_depth`` consecutive
    agreeing votes (mode history); stepping up happens immediately, to
    bound the performance loss.
    """

    window_cycles: int = 256
    ipc_4wide: float = 2.4
    ipc_6wide: float = 5.0
    fp_ipc_guard: float = 0.8
    history_depth: int = 2

    def __post_init__(self) -> None:
        if self.window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if self.ipc_4wide >= self.ipc_6wide:
            raise ValueError("ipc_4wide must be below ipc_6wide")
        if self.history_depth < 1:
            raise ValueError("history_depth must be >= 1")


#: per-mode resource settings from §4.3
MODE_RESOURCES: Dict[int, Dict[str, object]] = {
    8: {
        "disabled_fus": {},
        "dcache_ports_disabled": 0,
        "result_buses_disabled": 0,
        "latch_fraction_gated": 0.0,
        "iq_fraction_gated": 0.0,
    },
    6: {
        "disabled_fus": {FUClass.INT_ALU: 1, FUClass.FP_ALU: 1,
                         FUClass.FP_MULT: 1},
        "dcache_ports_disabled": 0,
        "result_buses_disabled": 2,
        "latch_fraction_gated": 0.25,
        "iq_fraction_gated": 0.25,
    },
    4: {
        "disabled_fus": {FUClass.INT_ALU: 3, FUClass.INT_MULT: 1,
                         FUClass.FP_ALU: 2, FUClass.FP_MULT: 2},
        "dcache_ports_disabled": 1,
        "result_buses_disabled": 4,
        "latch_fraction_gated": 0.5,
        "iq_fraction_gated": 0.5,
    },
}


class _ModePlan:
    """Everything :meth:`PLBPolicy.observe` needs for one mode,
    precomputed at bind time."""

    __slots__ = ("constraints", "iq_fraction", "disabled_fus",
                 "latch_rows", "front_end_gated", "dcache_ports_disabled",
                 "result_buses_disabled")

    def __init__(self, mode: int, config: MachineConfig,
                 extended: bool) -> None:
        resources = MODE_RESOURCES[mode]
        self.disabled_fus: Dict[FUClass, int] = dict(
            resources["disabled_fus"])
        self.iq_fraction: float = resources["iq_fraction_gated"]
        # a narrow machine (``width=N``) keeps at least one D-cache port
        # and one result bus in every mode, or nothing could complete
        self.dcache_ports_disabled: int = min(
            resources["dcache_ports_disabled"], config.dcache_ports - 1)
        self.result_buses_disabled: int = min(
            resources["result_buses_disabled"], config.result_buses - 1)
        cons = CycleConstraints(
            issue_width=min(mode, config.issue_width),
            rename_width=min(mode, config.decode_width),
            dcache_ports=config.dcache_ports,
            result_buses=config.result_buses,
            disabled_fus=dict(self.disabled_fus),
        )
        if extended:
            cons.dcache_ports -= self.dcache_ports_disabled
            cons.result_buses -= self.result_buses_disabled
        self.constraints = cons
        # PLB-ext latch gating table: per gated stage, (stage name,
        # capacity, gated-slot target); the front-end contribution is a
        # plain constant because usage always fits the mode width
        depth = config.depth
        width = config.issue_width
        fraction = resources["latch_fraction_gated"]
        rows = []
        for stage, segments in (("rename", depth.rename),
                                ("regread", depth.regread),
                                ("execute", depth.execute),
                                ("mem", depth.mem),
                                ("writeback", depth.writeback)):
            capacity = width * segments
            rows.append((stage, capacity, int(capacity * fraction)))
        self.latch_rows: Tuple[Tuple[str, int, int], ...] = tuple(rows)
        front_capacity = width * (depth.fetch + depth.decode + depth.issue)
        self.front_end_gated = int(front_capacity * fraction)


class PLBPolicy(GatingPolicy):
    """Pipeline balancing, original or extended gating set.

    Parameters
    ----------
    extended:
        ``False`` — PLB-orig (gates execution units + issue queue);
        ``True`` — PLB-ext (adds pipeline latches, D-cache decoder,
        result buses).
    triggers:
        Threshold/hysteresis configuration.
    """

    constraints_static = False      # per-mode resource restrictions

    def __init__(self, extended: bool = False,
                 triggers: PLBTriggerConfig = PLBTriggerConfig()) -> None:
        self.extended = extended
        self.triggers = triggers
        self.name = "plb-ext" if extended else "plb-orig"
        self.mode = 8
        self._window_issued = 0
        self._window_fp_issued = 0
        self._down_votes = 0
        self._pending_mode = 8
        self.mode_cycles: Dict[int, int] = {8: 0, 6: 0, 4: 0}
        self.transitions = 0

    def bind(self, config: MachineConfig) -> None:
        super().bind(config)
        self.mode = 8
        self._window_issued = 0
        self._window_fp_issued = 0
        self._down_votes = 0
        # a policy instance may be re-bound and reused across runs
        # (ExperimentRunner.run_many does); without clearing the pending
        # downgrade vote here, a stale mode carried over from the end of
        # the previous run could commit a wrong mode switch in the first
        # windows of the next one
        self._pending_mode = 8
        self.mode_cycles = {8: 0, 6: 0, 4: 0}
        self.transitions = 0
        self._mode_plans: Dict[int, _ModePlan] = {
            mode: _ModePlan(mode, config, self.extended)
            for mode in MODE_RESOURCES}
        self._plan = self._mode_plans[8]
        self._window_cycles = self.triggers.window_cycles

    # -- trigger FSM ----------------------------------------------------------

    def _window_vote(self) -> int:
        cycles = self.triggers.window_cycles
        issue_ipc = self._window_issued / cycles
        fp_ipc = self._window_fp_issued / cycles
        if issue_ipc < self.triggers.ipc_4wide:
            vote = 4
        elif issue_ipc < self.triggers.ipc_6wide:
            vote = 6
        else:
            vote = 8
        if vote == 4 and fp_ipc >= self.triggers.fp_ipc_guard:
            vote = 6  # secondary trigger: keep the FP cluster powered
        return vote

    def _update_mode(self) -> None:
        vote = self._window_vote()
        if vote >= self.mode:
            # step up (or stay): immediate, bounding performance loss
            if vote != self.mode:
                self.transitions += 1
            self.mode = vote
            self._down_votes = 0
            self._pending_mode = vote
            return
        if vote == self._pending_mode:
            self._down_votes += 1
        else:
            self._pending_mode = vote
            self._down_votes = 1
        if self._down_votes >= self.triggers.history_depth:
            self.mode = self._pending_mode
            self._down_votes = 0
            self.transitions += 1

    # -- policy interface ------------------------------------------------------

    def constraints(self, cycle: int) -> CycleConstraints:
        if cycle > 0 and cycle % self._window_cycles == 0:
            self._update_mode()
            self._window_issued = 0
            self._window_fp_issued = 0
            self._plan = self._mode_plans[self.mode]
        return self._plan.constraints

    def observe(self, usage: CycleUsage) -> GateDecision:
        self._window_issued += usage.issued
        self._window_fp_issued += usage.issued_fp
        mode = self.mode
        self.mode_cycles[mode] += 1

        plan = self._plan
        decision = GateDecision(
            issue_queue_gated_fraction=plan.iq_fraction)

        # execution units: a disabled instance is gated only once any
        # in-flight work from before the mode switch has drained
        fu_active = usage.fu_active
        fu_gated = decision.fu_gated
        for fu_class, disabled in plan.disabled_fus.items():
            mask = fu_active.get(fu_class, ())
            still_active = 0
            for on in mask[len(mask) - disabled:]:
                if on:
                    still_active += 1
            fu_gated[fu_class] = disabled - still_active

        if not self.extended:
            return decision

        # PLB-ext: latches, D-cache decoder port, result buses
        gated_slots = plan.front_end_gated
        latch_slots = usage.latch_slots
        for stage, capacity, target in plan.latch_rows:
            free = capacity - latch_slots.get(stage, 0)
            gated_slots += target if target < free else free
        decision.latch_gated_slots = gated_slots

        cfg = self.config
        free_ports = (cfg.dcache_ports - usage.dcache_load_ports
                      - usage.dcache_store_ports)
        ports_disabled = plan.dcache_ports_disabled
        decision.dcache_ports_gated = (
            ports_disabled if ports_disabled < free_ports else free_ports)
        free_buses = cfg.result_buses - usage.result_bus_used
        buses_disabled = plan.result_buses_disabled
        decision.result_buses_gated = (
            buses_disabled if buses_disabled < free_buses else free_buses)
        return decision

    def observe_span(self, usage: CycleUsage, n: int) -> GateDecision:
        # no window edge falls inside a span (next_constraints_change),
        # so the mode and plan hold and every cycle's decision is equal
        decision = self.observe(usage)
        self.mode_cycles[self.mode] += n - 1
        return decision

    def next_constraints_change(self, cycle: int) -> Optional[int]:
        window = self._window_cycles
        return (cycle // window + 1) * window

    def result_fields(self) -> Dict[str, Any]:
        return {"mode_cycles": dict(self.mode_cycles)}
