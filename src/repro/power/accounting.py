"""Per-cycle energy accounting.

Implements the paper's §4.2 rule: for each block family (execution
units, pipeline latches, D-cache wordline decoders, result-bus
drivers, issue queue), a block adds its full per-cycle power to the
total when it is not clock-gated and zero when it is.  Everything else
(the ``fixed`` budget) burns every cycle.

The accountant consumes ``(CycleUsage, GateDecision)`` pairs — it is a
pipeline observer — and accumulates both total energy and per-family
base/saved energies, from which every figure in §5 is computed.

:meth:`PowerAccountant.observe` is per-cycle hot-path code.  The
accumulators are plain repeated float additions and MUST stay that way:
batching N cycles into one ``N * watts`` multiply is not bit-identical
to N additions, and downstream golden tests (and the disk cache) rely
on byte-identical energies.  The only transformations applied here are
exact ones — hoisting attribute lookups, and skipping additions whose
addend is exactly ``+0.0`` (``x + 0.0 == x`` bitwise for every float
the accumulators can reach, since they never go to ``-0.0``).
:meth:`PowerAccountant.observe_span`, which folds a skipped run of
identical idle cycles, follows the same rule: it replays each
accumulator's per-cycle additions ``n`` times, in :meth:`observe`'s
order, through a C-level ``reduce`` instead of multiplying.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import Dict, Sequence

from ..core.interface import GateDecision
from ..pipeline.usage import CycleObserver, CycleUsage
from ..trace.uop import FUClass
from .budget import BlockPowers

__all__ = ["FamilyEnergy", "PowerAccountant",
           "INT_UNIT_CLASSES", "FP_UNIT_CLASSES"]

#: Fig 12's "integer execution units"
INT_UNIT_CLASSES = (FUClass.INT_ALU, FUClass.INT_MULT)
#: Fig 13's "FP execution units"
FP_UNIT_CLASSES = (FUClass.FP_ALU, FUClass.FP_MULT)


def _replay(total: float, addends: Sequence[float], n: int) -> float:
    """``total`` after ``n`` rounds of adding ``addends`` in order —
    the very float additions ``n`` per-cycle observations perform."""
    return reduce(add, chain.from_iterable(repeat(addends, n)), total)


class FamilyEnergy:
    """Base vs saved energy of one block family (joules, as
    power x cycles in units of cycle-watts)."""

    __slots__ = ("base", "saved")

    def __init__(self, base: float = 0.0, saved: float = 0.0) -> None:
        self.base = base
        self.saved = saved

    @property
    def consumed(self) -> float:
        return self.base - self.saved

    @property
    def saving_fraction(self) -> float:
        return self.saved / self.base if self.base else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FamilyEnergy(base={self.base!r}, saved={self.saved!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FamilyEnergy):
            return NotImplemented
        return self.base == other.base and self.saved == other.saved


class PowerAccountant(CycleObserver):
    """Accumulates energy over a run.

    :func:`~repro.sim.simulator.assemble_run` attaches one to every run.
    """

    def __init__(self, blocks: BlockPowers) -> None:
        self.blocks = blocks
        self.cycles = 0
        self.families: Dict[str, FamilyEnergy] = {
            "int_units": FamilyEnergy(),
            "fp_units": FamilyEnergy(),
            "latches": FamilyEnergy(),
            "dcache": FamilyEnergy(),
            "result_bus": FamilyEnergy(),
            "issue_queue": FamilyEnergy(),
        }
        self.control_overhead_energy = 0.0
        self.toggle_energy = 0.0
        # cache per-cycle constants and family records (observe() runs
        # once per simulated cycle; keep its lookups to slot loads)
        fam = self.families
        self._int_f = fam["int_units"]
        self._fp_f = fam["fp_units"]
        self._latch_f = fam["latches"]
        self._dcache_f = fam["dcache"]
        self._bus_f = fam["result_bus"]
        self._iq_f = fam["issue_queue"]
        self._int_units_watts = blocks.exec_family_total(INT_UNIT_CLASSES)
        self._fp_units_watts = blocks.exec_family_total(FP_UNIT_CLASSES)
        self._latch_watts = blocks.latch_total
        self._dcache_watts = blocks.dcache_total
        self._bus_watts = blocks.result_bus_total
        self._iq_watts = blocks.issue_queue
        self._fu_instance_watts = blocks.fu_instance
        self._latch_slot_watts = blocks.latch_per_slot_stage
        self._dcache_port_watts = blocks.dcache_decoder_per_port
        self._bus_driver_watts = blocks.result_bus_per_bus
        self._control_overhead_watts = blocks.dcg_control_overhead_watts
        self._toggle_table = blocks.fu_toggle_energy
        self._period = 1.0 / blocks.tech.frequency_hz
        # clock gating removes a block's switching power but not its
        # leakage; the paper's model assumes zero leakage (§4.2)
        self._gating_efficiency = 1.0 - blocks.calibration.leakage_fraction

    # -- observation ---------------------------------------------------------

    def observe(self, usage: CycleUsage, decision: GateDecision) -> None:
        int_f = self._int_f
        fp_f = self._fp_f
        latch_f = self._latch_f

        int_f.base += self._int_units_watts
        fp_f.base += self._fp_units_watts
        latch_f.base += self._latch_watts
        self._dcache_f.base += self._dcache_watts
        self._bus_f.base += self._bus_watts
        self._iq_f.base += self._iq_watts

        eff = self._gating_efficiency
        fu_gated = decision.fu_gated
        if fu_gated:
            instance_watts = self._fu_instance_watts
            for fu_class, gated in fu_gated.items():
                if gated < 0:
                    raise ValueError(
                        f"negative gated count for {fu_class.name}")
                if gated:
                    saved = gated * instance_watts[fu_class] * eff
                    if fu_class in INT_UNIT_CLASSES:
                        int_f.saved += saved
                    else:
                        fp_f.saved += saved

        gated_slots = decision.latch_gated_slots
        if gated_slots:
            latch_f.saved += gated_slots * self._latch_slot_watts * eff
        gated_ports = decision.dcache_ports_gated
        if gated_ports:
            self._dcache_f.saved += gated_ports * self._dcache_port_watts * eff
        gated_buses = decision.result_buses_gated
        if gated_buses:
            self._bus_f.saved += gated_buses * self._bus_driver_watts * eff
        iq_fraction = decision.issue_queue_gated_fraction
        if iq_fraction:
            self._iq_f.saved += iq_fraction * self._iq_watts * eff

        if decision.control_always_on:
            # DCG's extended latches burn regardless; charge them against
            # the latch family so Fig 14's overhead-inclusive number falls
            # out directly
            overhead = self._control_overhead_watts
            self.control_overhead_energy += overhead
            latch_f.saved -= overhead
        fu_toggles = decision.fu_toggles
        if fu_toggles:
            toggle_table = self._toggle_table
            period = self._period
            for fu_class, flips in fu_toggles.items():
                # toggle energy is charged against the toggling unit's family
                toggle = flips * toggle_table[fu_class]
                self.toggle_energy += toggle
                if fu_class in INT_UNIT_CLASSES:
                    int_f.saved -= toggle / period
                else:
                    fp_f.saved -= toggle / period

        self.cycles += 1

    def observe_span(self, usage: CycleUsage, decision: GateDecision,
                     n: int) -> None:
        """Fold ``n`` cycles that share ``usage`` and ``decision``; bit
        for bit the same as ``n`` calls of :meth:`observe`."""
        eff = self._gating_efficiency
        int_saved = []
        fp_saved = []
        latch_saved = []
        instance_watts = self._fu_instance_watts
        for fu_class, gated in decision.fu_gated.items():
            if gated < 0:
                raise ValueError(
                    f"negative gated count for {fu_class.name}")
            if gated:
                saved = gated * instance_watts[fu_class] * eff
                if fu_class in INT_UNIT_CLASSES:
                    int_saved.append(saved)
                else:
                    fp_saved.append(saved)
        if decision.latch_gated_slots:
            latch_saved.append(
                decision.latch_gated_slots * self._latch_slot_watts * eff)
        dcache_saved = bus_saved = iq_saved = ()
        if decision.dcache_ports_gated:
            dcache_saved = (decision.dcache_ports_gated
                            * self._dcache_port_watts * eff,)
        if decision.result_buses_gated:
            bus_saved = (decision.result_buses_gated
                         * self._bus_driver_watts * eff,)
        if decision.issue_queue_gated_fraction:
            iq_saved = (decision.issue_queue_gated_fraction
                        * self._iq_watts * eff,)
        overhead = ()
        if decision.control_always_on:
            overhead = (self._control_overhead_watts,)
            latch_saved.append(-self._control_overhead_watts)
        toggles = []
        for fu_class, flips in decision.fu_toggles.items():
            toggle = flips * self._toggle_table[fu_class]
            toggles.append(toggle)
            if fu_class in INT_UNIT_CLASSES:
                int_saved.append(-(toggle / self._period))
            else:
                fp_saved.append(-(toggle / self._period))

        for family, watts, saved in (
                (self._int_f, self._int_units_watts, int_saved),
                (self._fp_f, self._fp_units_watts, fp_saved),
                (self._latch_f, self._latch_watts, latch_saved),
                (self._dcache_f, self._dcache_watts, dcache_saved),
                (self._bus_f, self._bus_watts, bus_saved),
                (self._iq_f, self._iq_watts, iq_saved)):
            family.base = _replay(family.base, (watts,), n)
            family.saved = _replay(family.saved, saved, n)
        self.control_overhead_energy = _replay(
            self.control_overhead_energy, overhead, n)
        self.toggle_energy = _replay(self.toggle_energy, toggles, n)
        self.cycles += n

    # -- results ------------------------------------------------------------

    @property
    def base_power(self) -> float:
        """Per-cycle power of the no-gating machine (constant)."""
        return self.blocks.total

    @property
    def saved_energy(self) -> float:
        return sum(f.saved for f in self.families.values())

    @property
    def consumed_energy(self) -> float:
        """Cycle-watts consumed over the run."""
        return self.base_power * self.cycles - self.saved_energy

    @property
    def average_power(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.consumed_energy / self.cycles

    @property
    def total_saving_fraction(self) -> float:
        """Fraction of total processor power saved (Fig 10's metric)."""
        if self.cycles == 0:
            return 0.0
        return self.saved_energy / (self.base_power * self.cycles)

    def family_saving(self, family: str) -> float:
        """Per-family saving fraction (Figs 12-16's metric)."""
        return self.families[family].saving_fraction

    def exec_units_saving(self) -> float:
        """Combined integer + FP execution-unit saving fraction."""
        int_f, fp_f = self.families["int_units"], self.families["fp_units"]
        base = int_f.base + fp_f.base
        return (int_f.saved + fp_f.saved) / base if base else 0.0
