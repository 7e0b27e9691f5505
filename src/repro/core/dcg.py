"""Deterministic Clock Gating (the paper's contribution).

DCG exploits the fact that, in an out-of-order pipeline, a back-end
block's use in a near-future cycle is *deterministically* known at the
end of issue (and, for the rename latch, at the end of decode):

* **Execution units** (§3.1): the selection logic's GRANT signals at
  issue cycle ``X`` say exactly which unit instances execute from cycle
  ``X + 2``; the signals ride down the pipe in a few extra latch bits
  and AND with each unit's clock.  :class:`DCGPolicy` implements this
  literally — a grant calendar is built *only* from issue-time
  information, and (optionally, on by default) cross-checked against
  the pipeline's actual per-unit activity every cycle, which must match
  because the methodology is deterministic.
* **Pipeline latches** (§3.2): a one-hot encoding of how many issue
  slots filled at cycle ``X`` gates per-slot latches at the register
  read / execute / memory stages at fixed delays; the rename latch is
  gated from the decode-stage count; writeback latches from completion
  counts (known at least a cycle ahead from execute).
* **D-cache wordline decoders** (§3.3): the load/store issue one-hot,
  delayed to the access cycle, gates unused ports.  Stores either have
  advance knowledge from the load/store queue (``store_policy
  ="advance"``) or are delayed one cycle to set up the gate control
  (``"delayed"``) — the paper argues the delay costs virtually nothing
  because stores produce no pipeline values.
* **Result-bus drivers** (§3.4): execute-stage completion counts,
  delayed to writeback, gate unused bus drivers.

DCG imposes *no* other constraints: no prediction, no thresholds, no
performance loss (the run's cycle count equals the base machine's,
which a test asserts).

:meth:`DCGPolicy.observe` runs once per simulated cycle and is hot-path
code: per-class index universes, stage latch capacities, and the
constraints object are all precomputed at :meth:`DCGPolicy.bind` so the
per-cycle work is set arithmetic over small prebuilt sets.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..backend.funits import FU_LATENCY
from ..pipeline.config import MachineConfig
from ..pipeline.usage import CycleUsage, activity_mask_table
from ..trace.uop import FUClass
from .interface import CycleConstraints, GateDecision, GatingPolicy

__all__ = ["DCGPolicy"]

_EXEC_CLASSES = (FUClass.INT_ALU, FUClass.INT_MULT,
                 FUClass.FP_ALU, FUClass.FP_MULT)

#: bitmask-table ceiling: per-class activity tuples are precomputed for
#: every claimed mask when 2**count stays small; beyond this the verify
#: path falls back to set comparison
_TABLE_MAX_UNITS = 12


class DCGPolicy(GatingPolicy):
    """Deterministic clock gating, all four block families.

    Parameters
    ----------
    store_policy:
        ``"advance"`` — the load/store queue exposes upcoming store
        accesses one cycle early (§3.3 possibility 1, no delay);
        ``"delayed"`` — stores wait one extra cycle before their cache
        access so the gate control can be set up (possibility 2).
    gate_units / gate_latches / gate_dcache / gate_result_bus:
        Enable gating per block family (the component-contribution
        ablation turns these off selectively).
    gate_issue_queue:
        **Extension** (off by default, as in the paper): §2.2.2 notes
        that [6] already gates issue-queue entries that are
        deterministically empty; this flag composes that technique with
        DCG by gating the empty fraction of the instruction window each
        cycle (occupancy is deterministically known).
    verify:
        Cross-check the grant-calendar prediction against the
        pipeline's actual unit activity every cycle (deterministic
        methodologies must never disagree; a mismatch raises).
    """

    name = "dcg"

    def __init__(self, store_policy: str = "advance",
                 gate_units: bool = True, gate_latches: bool = True,
                 gate_dcache: bool = True, gate_result_bus: bool = True,
                 gate_issue_queue: bool = False,
                 verify: bool = True) -> None:
        if store_policy not in ("advance", "delayed"):
            raise ValueError("store_policy must be 'advance' or 'delayed'")
        self.store_policy = store_policy
        self.gate_units = gate_units
        self.gate_latches = gate_latches
        self.gate_dcache = gate_dcache
        self.gate_result_bus = gate_result_bus
        self.gate_issue_queue = gate_issue_queue
        self.verify = verify
        if gate_issue_queue:
            self.name = "dcg+iq"
        self._grant_rings: Dict[FUClass, List[int]] = {}
        self._ring_mask = 0
        self._pop_cycle: Optional[int] = None
        self._prev_gated_bits: Dict[FUClass, int] = {}
        self.toggle_count = 0

    def bind(self, config: MachineConfig) -> None:
        super().bind(config)
        if self.store_policy == "delayed":
            self._full_machine_constraints.store_extra_delay = 1
        self._issue_to_execute = config.depth.issue_to_execute
        # the grant calendar is a per-class ring of claimed-unit bitmasks
        # indexed by ``cycle & mask``: a grant at issue cycle X with
        # latency L sets its unit's bit over [X + issue_to_execute,
        # X + issue_to_execute + L - 1], and each observed cycle pops
        # (reads and zeroes) its slot.  The ring only has to out-span
        # the farthest write, issue_to_execute plus the longest FU
        # occupancy, so slots never collide.
        horizon = self._issue_to_execute + max(
            spec.latency for spec in FU_LATENCY.values()) + 1
        size = 1
        while size < horizon:
            size *= 2
        self._ring_mask = size - 1
        self._grant_rings = {cls: [0] * size for cls in _EXEC_CLASSES}
        self._pop_cycle = None
        # per-class (class, count, full-mask, ring, activity-table) rows,
        # fixed for the run; activity-table[claimed_bits] is the exact
        # fu_active tuple the pipeline must report for that prediction
        self._unit_rows = tuple(
            (cls, count, (1 << count) - 1, self._grant_rings[cls],
             activity_mask_table(count)
             if count <= _TABLE_MAX_UNITS else None)
            for cls, count in ((cls, config.fu_counts.get(cls, 0))
                               for cls in _EXEC_CLASSES))
        self._prev_gated_bits = {cls: full
                                 for cls, _n, full, _r, _t in self._unit_rows}
        # gated latch stages as (stage name, slot capacity), §3.2
        depth = config.depth
        width = config.issue_width
        self._latch_stages: Tuple[Tuple[str, int], ...] = (
            ("rename", width * depth.rename),
            ("regread", width * depth.regread),
            ("execute", width * depth.execute),
            ("mem", width * depth.mem),
            ("writeback", width * depth.writeback),
        )
        self._window_size = config.window_size
        self._dcache_ports = config.dcache_ports
        self._result_buses = config.result_buses
        self.toggle_count = 0

    # -- constraints -----------------------------------------------------

    def constraints(self, cycle: int) -> CycleConstraints:
        return self._full_machine_constraints

    # -- per-cycle gate decision --------------------------------------------

    def observe(self, usage: CycleUsage) -> GateDecision:
        cycle = usage.cycle
        decision = GateDecision(control_always_on=True)

        # record this cycle's GRANTs into the calendar: a grant at issue
        # cycle X with occupancy L keeps its unit ungated over
        # [X + issue_to_execute, X + issue_to_execute + L - 1]
        rmask = self._ring_mask
        grants = usage.grants
        if grants:
            rings = self._grant_rings
            start = cycle + self._issue_to_execute
            for fu_class, index, latency in grants:
                ring = rings[fu_class]
                bit = 1 << index
                for cc in range(start, start + latency):
                    ring[cc & rmask] |= bit

        # a dict calendar silently never pops entries for skipped cycles;
        # a ring must zero those slots or they alias later cycles.  Only
        # hand-driven unit tests observe non-contiguous cycles, so this
        # stays off the hot path.
        prev_cycle = self._pop_cycle
        self._pop_cycle = cycle
        if prev_cycle is not None and cycle > prev_cycle + 1:
            skipped = (range(prev_cycle + 1, cycle)
                       if cycle - prev_cycle - 1 <= rmask
                       else range(rmask + 1))
            for _cls, _n, _full, ring, _t in self._unit_rows:
                for cc in skipped:
                    ring[cc & rmask] = 0

        # execution units: gate everything the delayed grants do not claim
        ridx = cycle & rmask
        if self.gate_units:
            toggles = 0
            prev_gated = self._prev_gated_bits
            fu_gated = decision.fu_gated
            fu_active = usage.fu_active
            verify = self.verify
            for fu_class, count, full_mask, ring, table in self._unit_rows:
                claimed_bits = ring[ridx]
                ring[ridx] = 0
                if verify:
                    mask = fu_active.get(fu_class, ())
                    # fastest path: the core's activity tuples come
                    # from the same shared activity_mask_table, so one
                    # pointer comparison proves prediction == actual
                    if table is not None and mask is table[claimed_bits]:
                        pass
                    elif claimed_bits or True in mask:
                        # value comparison for tuples built elsewhere
                        # (hand-made usage records in tests); fall
                        # back to set comparison only on mismatch
                        # (list-typed masks, capacity mismatches)
                        if table is None or mask != table[claimed_bits]:
                            actual = {i for i, on in enumerate(mask) if on}
                            claimed = {i for i in range(count)
                                       if claimed_bits >> i & 1}
                            if actual != claimed:
                                raise AssertionError(
                                    f"DCG determinism violated at cycle "
                                    f"{cycle}: {fu_class.name} grants "
                                    f"predict {sorted(claimed)} but units "
                                    f"{sorted(actual)} are active")
                gated = full_mask & ~claimed_bits
                fu_gated[fu_class] = count - claimed_bits.bit_count()
                flips = (gated ^ prev_gated[fu_class]).bit_count()
                if flips:
                    decision.fu_toggles[fu_class] = flips
                    toggles += flips
                prev_gated[fu_class] = gated
            self.toggle_count += toggles
        else:
            # the dict calendar popped its cycle slot even with unit
            # gating off; the ring equivalent is zeroing the slots
            for _cls, _n, _full, ring, _t in self._unit_rows:
                ring[ridx] = 0

        # pipeline latches: per gated stage, width*segments minus the
        # slots the delayed one-hot encodings mark as occupied
        if self.gate_latches:
            gated = 0
            latch_slots = usage.latch_slots
            for stage, capacity in self._latch_stages:
                used = latch_slots.get(stage, 0)
                if used > capacity:
                    raise AssertionError(
                        f"latch usage {used} exceeds capacity {capacity} "
                        f"for stage {stage} at cycle {cycle}")
                gated += capacity - used
            decision.latch_gated_slots = gated

        # D-cache wordline decoders: ports unused at the access cycle
        if self.gate_dcache:
            used = usage.dcache_load_ports + usage.dcache_store_ports
            gated_ports = self._dcache_ports - used
            decision.dcache_ports_gated = gated_ports if gated_ports > 0 else 0

        # result-bus drivers: buses with no completing result
        if self.gate_result_bus:
            gated_buses = self._result_buses - usage.result_bus_used
            decision.result_buses_gated = gated_buses if gated_buses > 0 else 0

        # extension: [6]-style deterministic issue-queue entry gating —
        # empty window entries cannot wake or be selected, so their
        # clock can be gated with no prediction involved
        if self.gate_issue_queue:
            empty = self._window_size - usage.window_occupancy
            decision.issue_queue_gated_fraction = empty / self._window_size

        return decision

    def observe_span(self, usage: CycleUsage, n: int) -> GateDecision:
        # a span follows a quiescent cycle, so no grant is in flight:
        # every calendar slot is empty and no gate control flips
        decision = self.observe(usage)
        if decision.fu_toggles or any(
                any(ring) for _cls, _n, _full, ring, _t in self._unit_rows):
            raise AssertionError(
                f"DCG idle span at cycle {usage.cycle} with grants in "
                f"flight")
        self._pop_cycle = usage.cycle + n - 1
        return decision

    def result_fields(self) -> Dict[str, Any]:
        return {"fu_toggles": self.toggle_count}
