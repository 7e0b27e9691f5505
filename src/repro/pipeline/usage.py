"""Per-cycle resource-usage records and the observer protocol.

The pipeline emits one :class:`CycleUsage` at the end of every cycle it
steps, and one for a whole run of skipped quiescent cycles (handed on
with the run's length, see :meth:`UsageTotals.add_span`).
Gating policies and every :class:`CycleObserver` (the power accountant
first) consume it: policies decide which blocks were (or could have
been) clock-gated; the accountant converts usage + gate decisions into
energy.

Both records live on the simulator's per-cycle hot path — one
:class:`CycleUsage` is allocated and one :meth:`UsageTotals.add` runs
every simulated cycle — so they are plain ``__slots__`` classes rather
than dataclasses: slot attribute access is what the cycle loop, the
policies, and the accountant spend their time on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..trace.uop import FUClass

if TYPE_CHECKING:                       # the policy interface imports us
    from ..core.interface import GateDecision

__all__ = ["CycleObserver", "CycleUsage", "UsageTotals",
           "activity_mask_table"]


@lru_cache(maxsize=None)
def activity_mask_table(count: int) -> Tuple[Tuple[bool, ...], ...]:
    """All per-instance activity tuples for a ``count``-unit FU class,
    indexed by occupancy bitmask (bit ``i`` = instance ``i`` active).

    Cached so every consumer — the array core emitting ``fu_active``
    and DCG's verify cross-check — shares the *same* tuple objects,
    which lets consumers prove equality with an identity check.
    """
    return tuple(
        tuple(bool(bits >> i & 1) for i in range(count))
        for bits in range(1 << count))


class CycleUsage:
    """Everything that happened in one cycle, as the clock tree sees it."""

    __slots__ = (
        "cycle", "fetched", "decoded", "renamed", "dispatched", "issued",
        "issued_loads", "issued_stores", "issued_fp", "committed",
        "fu_active", "grants", "latch_slots", "dcache_load_ports",
        "dcache_store_ports", "result_bus_used", "window_occupancy",
        "lsq_occupancy", "fetch_stalled",
    )

    def __init__(self, cycle: int = 0, fetched: int = 0, decoded: int = 0,
                 renamed: int = 0, dispatched: int = 0, issued: int = 0,
                 issued_loads: int = 0, issued_stores: int = 0,
                 issued_fp: int = 0, committed: int = 0,
                 dcache_load_ports: int = 0, dcache_store_ports: int = 0,
                 result_bus_used: int = 0, window_occupancy: int = 0,
                 lsq_occupancy: int = 0, fetch_stalled: bool = False) -> None:
        self.cycle = cycle
        self.fetched = fetched
        self.decoded = decoded
        #: ops crossing the rename-stage output latch
        self.renamed = renamed
        self.dispatched = dispatched
        self.issued = issued
        self.issued_loads = issued_loads
        self.issued_stores = issued_stores
        self.issued_fp = issued_fp
        self.committed = committed
        #: per-FU-class tuple of per-instance activity (True = op in flight)
        self.fu_active: Dict[FUClass, Tuple[bool, ...]] = {}
        #: selection-logic GRANT signals raised this cycle, as
        #: (fu_class, instance index, execute-stage occupancy in cycles) —
        #: DCG's §3.1 advance information
        self.grants: List[Tuple[FUClass, int, int]] = []
        #: gated-stage latch slot usage, keyed by stage name
        self.latch_slots: Dict[str, int] = {}
        self.dcache_load_ports = dcache_load_ports
        self.dcache_store_ports = dcache_store_ports
        self.result_bus_used = result_bus_used
        self.window_occupancy = window_occupancy
        self.lsq_occupancy = lsq_occupancy
        self.fetch_stalled = fetch_stalled

    @property
    def dcache_ports_used(self) -> int:
        return self.dcache_load_ports + self.dcache_store_ports

    def fu_used_count(self, fu_class: FUClass) -> int:
        return sum(self.fu_active.get(fu_class, ()))

    def idle(self, cycle: int) -> "CycleUsage":
        """A fresh record for idle ``cycle``, equal to what stepping it
        would produce after this quiescent cycle."""
        usage = CycleUsage(cycle, window_occupancy=self.window_occupancy,
                           lsq_occupancy=self.lsq_occupancy,
                           fetch_stalled=self.fetch_stalled)
        usage.fu_active = dict(self.fu_active)
        usage.latch_slots = dict(self.latch_slots)
        return usage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CycleUsage cycle={self.cycle} fetched={self.fetched} "
                f"issued={self.issued} committed={self.committed}>")


class CycleObserver:
    """Consumer of the core's per-cycle ``(usage, decision)`` pairs.

    Attach an instance with ``pipeline.add_observer(observer)``; the
    pipeline calls :meth:`observe` once per stepped cycle, after the
    gating policy, and :meth:`observe_span` once per skipped run of
    quiescent cycles.
    """

    def observe(self, usage: CycleUsage, decision: "GateDecision") -> None:
        raise NotImplementedError

    def observe_span(self, usage: CycleUsage, decision: "GateDecision",
                     n: int) -> None:
        """Fold ``n`` idle cycles that all look like ``usage`` (the
        span's first cycle) under ``decision``.

        By default each cycle reaches :meth:`observe` as a fresh
        record, exactly as stepping it would; observers that can fold
        a span in one exact update override this.
        """
        observe = self.observe
        for cycle in range(usage.cycle, usage.cycle + n):
            observe(usage.idle(cycle), decision)


class UsageTotals:
    """Running sums of :class:`CycleUsage`, for utilisation reports."""

    __slots__ = (
        "cycles", "issued", "committed", "fetched", "fu_active_cycles",
        "fu_capacity_cycles", "latch_slot_cycles", "dcache_port_cycles",
        "result_bus_cycles", "fetch_stall_cycles",
    )

    def __init__(self) -> None:
        self.cycles = 0
        self.issued = 0
        self.committed = 0
        self.fetched = 0
        self.fu_active_cycles: Dict[FUClass, int] = {}
        self.fu_capacity_cycles: Dict[FUClass, int] = {}
        self.latch_slot_cycles: Dict[str, int] = {}
        self.dcache_port_cycles = 0
        self.result_bus_cycles = 0
        self.fetch_stall_cycles = 0

    def add(self, usage: CycleUsage,
            fu_counts: Optional[List[Tuple[FUClass, int, int]]] = None
            ) -> None:
        """Fold one cycle into the running sums.

        ``fu_counts`` is an optional list of ``(fu_class, active,
        capacity)`` rows matching ``usage.fu_active`` exactly — the
        array core passes it because it already knows the per-class
        popcounts, saving this hot path from re-summing bool tuples.
        """
        self.cycles += 1
        self.issued += usage.issued
        self.committed += usage.committed
        self.fetched += usage.fetched
        active_cycles = self.fu_active_cycles
        capacity_cycles = self.fu_capacity_cycles
        if fu_counts is None:
            for fu_class, mask in usage.fu_active.items():
                active_cycles[fu_class] = (
                    active_cycles.get(fu_class, 0) + sum(mask))
                capacity_cycles[fu_class] = (
                    capacity_cycles.get(fu_class, 0) + len(mask))
        else:
            for fu_class, active, capacity in fu_counts:
                active_cycles[fu_class] = (
                    active_cycles.get(fu_class, 0) + active)
                capacity_cycles[fu_class] = (
                    capacity_cycles.get(fu_class, 0) + capacity)
        slot_cycles = self.latch_slot_cycles
        for stage, slots in usage.latch_slots.items():
            slot_cycles[stage] = slot_cycles.get(stage, 0) + slots
        self.dcache_port_cycles += (usage.dcache_load_ports
                                    + usage.dcache_store_ports)
        self.result_bus_cycles += usage.result_bus_used
        if usage.fetch_stalled:
            self.fetch_stall_cycles += 1

    def add_span(self, usage: CycleUsage,
                 fu_counts: Optional[List[Tuple[FUClass, int, int]]],
                 n: int) -> None:
        """Fold ``n`` cycles that all look like ``usage``: :meth:`add`
        ``n`` times, in exact integer arithmetic."""
        self.cycles += n
        self.issued += usage.issued * n
        self.committed += usage.committed * n
        self.fetched += usage.fetched * n
        active_cycles = self.fu_active_cycles
        capacity_cycles = self.fu_capacity_cycles
        if fu_counts is None:
            fu_counts = [(fu_class, sum(mask), len(mask))
                         for fu_class, mask in usage.fu_active.items()]
        for fu_class, active, capacity in fu_counts:
            active_cycles[fu_class] = (
                active_cycles.get(fu_class, 0) + active * n)
            capacity_cycles[fu_class] = (
                capacity_cycles.get(fu_class, 0) + capacity * n)
        slot_cycles = self.latch_slot_cycles
        for stage, slots in usage.latch_slots.items():
            slot_cycles[stage] = slot_cycles.get(stage, 0) + slots * n
        self.dcache_port_cycles += (usage.dcache_load_ports
                                    + usage.dcache_store_ports) * n
        self.result_bus_cycles += usage.result_bus_used * n
        if usage.fetch_stalled:
            self.fetch_stall_cycles += n

    def fu_utilization(self, fu_class: FUClass) -> float:
        capacity = self.fu_capacity_cycles.get(fu_class, 0)
        if capacity == 0:
            return 0.0
        return self.fu_active_cycles.get(fu_class, 0) / capacity

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def issue_ipc(self) -> float:
        return self.issued / self.cycles if self.cycles else 0.0
