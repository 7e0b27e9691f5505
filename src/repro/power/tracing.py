"""Per-cycle power traces.

:class:`PowerTraceRecorder` is a pipeline observer that records the
machine's consumed power every cycle under a gating policy.  §3.1 of
the paper worries about di/dt noise from gate-control toggling; the
trace makes the current profile inspectable: cycle-to-cycle power
steps, window maxima, and a terminal sparkline for quick looks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.interface import GateDecision
from ..pipeline.usage import CycleObserver, CycleUsage
from .accounting import PowerAccountant
from .budget import BlockPowers

__all__ = ["PowerTraceRecorder"]

_SPARK_CHARS = " .:-=+*#%@"


class PowerTraceRecorder(CycleObserver):
    """Records consumed watts per cycle.

    Wraps a private :class:`PowerAccountant`; attach with::

        recorder = PowerTraceRecorder(BlockPowers(config))
        pipeline.add_observer(recorder)

    A skipped idle span reaches it as one record per cycle (the
    protocol's default), so the trace has a sample for every cycle.
    """

    def __init__(self, blocks: BlockPowers,
                 max_cycles: Optional[int] = None) -> None:
        self.blocks = blocks
        self.max_cycles = max_cycles
        self.samples: List[float] = []
        self._accountant = PowerAccountant(blocks)
        self._last_consumed = 0.0

    def observe(self, usage: CycleUsage, decision: GateDecision) -> None:
        self._accountant.observe(usage, decision)
        consumed = self._accountant.consumed_energy
        cycle_power = consumed - self._last_consumed
        self._last_consumed = consumed
        if self.max_cycles is None or len(self.samples) < self.max_cycles:
            self.samples.append(cycle_power)

    # -- analysis ---------------------------------------------------------

    @property
    def cycles(self) -> int:
        return len(self.samples)

    @property
    def mean_power(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def peak_power(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def min_power(self) -> float:
        return min(self.samples) if self.samples else 0.0

    def max_step(self) -> float:
        """Largest cycle-to-cycle power change (di/dt proxy, watts)."""
        if len(self.samples) < 2:
            return 0.0
        return max(abs(b - a) for a, b in zip(self.samples, self.samples[1:]))

    def window_means(self, window: int = 256) -> List[float]:
        """Mean power per non-overlapping window of ``window`` cycles."""
        if window <= 0:
            raise ValueError("window must be positive")
        out = []
        for start in range(0, len(self.samples), window):
            chunk = self.samples[start:start + window]
            out.append(sum(chunk) / len(chunk))
        return out

    def step_histogram(self, bins: int = 8) -> List[Tuple[float, int]]:
        """Histogram of |cycle-to-cycle power steps|: (bin upper edge,
        count)."""
        if bins <= 0:
            raise ValueError("bins must be positive")
        steps = [abs(b - a) for a, b in zip(self.samples, self.samples[1:])]
        if not steps:
            return []
        top = max(steps) or 1.0
        edges = [top * (i + 1) / bins for i in range(bins)]
        counts = [0] * bins
        for step in steps:
            index = min(bins - 1, int(step / top * bins))
            counts[index] += 1
        return list(zip(edges, counts))

    def sparkline(self, width: int = 60) -> str:
        """Down-sampled text rendering of the power trace."""
        if not self.samples:
            return ""
        lo, hi = self.min_power, self.peak_power
        span = (hi - lo) or 1.0
        stride = max(1, len(self.samples) // width)
        chars = []
        for start in range(0, len(self.samples), stride):
            chunk = self.samples[start:start + stride]
            level = (sum(chunk) / len(chunk) - lo) / span
            chars.append(_SPARK_CHARS[min(len(_SPARK_CHARS) - 1,
                                          int(level * len(_SPARK_CHARS)))])
        return "".join(chars[:width])
