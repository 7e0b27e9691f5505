"""Opt-in per-cycle occupancy and gating histograms.

:class:`CycleHistograms` is a
:class:`~repro.pipeline.usage.CycleObserver` (attach with
``pipeline.add_observer(histograms)``, exactly like
:class:`~repro.power.tracing.PowerTraceRecorder`) that accumulates
occupancy and gating-activity histograms while a simulation runs:

* issue-width distribution (how many ops issued per cycle),
* window and LSQ occupancy distributions (bucketed),
* gated block-cycles per family (FU / latch / D-cache / result bus),
* FU busy-unit distribution per cycle.

Nothing in the simulator hot path changes when histograms are off: the
pipeline's observer list is simply one entry shorter.  A skipped run of
idle cycles reaches them as one :meth:`CycleHistograms.observe_span`
call, so they keep the quiescent-skip speed-up.  Enable them for grid
runs with ``REPRO_HISTOGRAMS=1`` — :func:`~repro.sim.parallel.simulate_spec`
then attaches one per run and emits its summary as one
``sim.histograms`` journal event (travelling with the run's trace).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from ..core.interface import GateDecision
from ..pipeline.usage import CycleObserver, CycleUsage

__all__ = ["CycleHistograms", "HISTOGRAMS_ENV_VAR", "histograms_enabled"]

#: environment variable opting grid simulations into per-cycle histograms
HISTOGRAMS_ENV_VAR = "REPRO_HISTOGRAMS"

#: window/LSQ occupancy bucket upper bounds (last bucket is open-ended)
_OCCUPANCY_EDGES = (0, 4, 8, 16, 32, 64, 128)


def histograms_enabled() -> bool:
    """True when ``REPRO_HISTOGRAMS`` asks for per-cycle histograms."""
    value = os.environ.get(HISTOGRAMS_ENV_VAR, "").lower()
    return value not in ("", "0", "off", "false")


def _bucket_index(value: int) -> int:
    for index, edge in enumerate(_OCCUPANCY_EDGES):
        if value <= edge:
            return index
    return len(_OCCUPANCY_EDGES)


def _bucket_labels() -> List[str]:
    labels = [f"<={edge}" for edge in _OCCUPANCY_EDGES]
    labels.append(f">{_OCCUPANCY_EDGES[-1]}")
    return labels


class CycleHistograms(CycleObserver):
    """Accumulates per-cycle occupancy/gating histograms.

    The observe path is deliberately cheap — list indexing and integer
    adds only — because it runs once per simulated cycle when enabled.
    """

    def __init__(self) -> None:
        self.cycles = 0
        # issue counts are small (machine issue width); grow on demand
        self._issued: List[int] = [0] * 9
        self._window = [0] * (len(_OCCUPANCY_EDGES) + 1)
        self._lsq = [0] * (len(_OCCUPANCY_EDGES) + 1)
        self._fu_busy: List[int] = [0] * 17
        self.fetch_stall_cycles = 0
        self.gated_block_cycles: Dict[str, int] = {
            "fu": 0, "latch": 0, "dcache": 0, "result_bus": 0}
        self.fu_toggle_events = 0

    def observe(self, usage: CycleUsage, decision: GateDecision) -> None:
        self.observe_span(usage, decision, 1)

    def observe_span(self, usage: CycleUsage, decision: GateDecision,
                     n: int) -> None:
        """Fold ``n`` cycles that share ``usage`` and ``decision`` (a
        skipped idle span) with exact integer ``n``-fold updates."""
        self.cycles += n
        issued = usage.issued
        if issued >= len(self._issued):
            self._issued.extend([0] * (issued - len(self._issued) + 1))
        self._issued[issued] += n
        self._window[_bucket_index(usage.window_occupancy)] += n
        self._lsq[_bucket_index(usage.lsq_occupancy)] += n
        busy = 0
        for mask in usage.fu_active.values():
            busy += sum(mask)
        if busy >= len(self._fu_busy):
            self._fu_busy.extend([0] * (busy - len(self._fu_busy) + 1))
        self._fu_busy[busy] += n
        if usage.fetch_stalled:
            self.fetch_stall_cycles += n
        gated = self.gated_block_cycles
        for count in decision.fu_gated.values():
            gated["fu"] += count * n
        gated["latch"] += decision.latch_gated_slots * n
        gated["dcache"] += decision.dcache_ports_gated * n
        gated["result_bus"] += decision.result_buses_gated * n
        self.fu_toggle_events += decision.fu_toggle_events * n

    # -- reporting --------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """JSON-encodable bundle for a ``sim.histograms`` event."""

        def trimmed(counts: List[int]) -> Dict[str, int]:
            return {str(i): c for i, c in enumerate(counts) if c}

        labels = _bucket_labels()
        return {
            "cycles": self.cycles,
            "issued_hist": trimmed(self._issued),
            "fu_busy_hist": trimmed(self._fu_busy),
            "window_occupancy_hist": {
                labels[i]: c for i, c in enumerate(self._window) if c},
            "lsq_occupancy_hist": {
                labels[i]: c for i, c in enumerate(self._lsq) if c},
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "gated_block_cycles": dict(self.gated_block_cycles),
            "fu_toggle_events": self.fu_toggle_events,
        }
