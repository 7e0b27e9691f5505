"""Set-associative cache timing model.

Latency-oriented (no data storage): an access returns the number of
cycles until the requested word is available, walking misses down to the
next level.  Replacement is true LRU per set; writes allocate and mark
lines dirty (write-back, for traffic statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["CacheStats", "Cache", "MemoryLevel"]


class MemoryLevel:
    """Interface for anything a cache can miss to."""

    name: str = "memory-level"

    def access(self, addr: int, is_write: bool = False) -> int:
        """Cycles until the word at ``addr`` is available."""
        raise NotImplementedError


@dataclass
class CacheStats:
    """Per-cache access counters."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class Cache(MemoryLevel):
    """One level of set-associative, LRU, write-back/write-allocate cache.

    Parameters
    ----------
    name:
        Label used in statistics reports.
    size_bytes / assoc / line_bytes:
        Geometry; ``size_bytes`` must be divisible by
        ``assoc * line_bytes`` and ``line_bytes`` a power of two.
    hit_latency:
        Total cycles for a hit in this level (absolute, not additive on
        top of lower levels — matching the paper's Table 1 convention:
        L1 2 cycles, L2 12 cycles, memory 100 cycles).
    parent:
        Next level to access on a miss; ``None`` makes misses cost only
        ``hit_latency`` (useful in unit tests).
    """

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 line_bytes: int, hit_latency: int,
                 parent: Optional[MemoryLevel] = None) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        if assoc <= 0:
            raise ValueError("assoc must be positive")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError("size must be divisible by assoc * line_bytes")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.hit_latency = hit_latency
        self.parent = parent
        self.num_sets = size_bytes // (assoc * line_bytes)
        self.stats = CacheStats()
        # each set is an insertion-ordered dict tag -> dirty bit; the
        # first entry is least recently used
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]

    def contains(self, addr: int) -> bool:
        """True when the line holding ``addr`` is resident (no side effects)."""
        line_addr = addr // self.line_bytes
        return (line_addr // self.num_sets
                in self._sets[line_addr % self.num_sets])

    # -- access ------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> int:
        # index and tag are computed inline: this runs once per memory
        # op and per fetched line, on every level a miss walks through
        line_addr = addr // self.line_bytes
        num_sets = self.num_sets
        lines = self._sets[line_addr % num_sets]
        tag = line_addr // num_sets
        dirty = lines.pop(tag, None)
        if dirty is not None:
            # hit: re-insert at the most-recently-used end
            lines[tag] = dirty or is_write
            self.stats.hits += 1
            return self.hit_latency
        self.stats.misses += 1
        miss_latency = self.hit_latency
        if self.parent is not None:
            miss_latency = self.parent.access(addr, False)
        if len(lines) >= self.assoc:
            if lines.pop(next(iter(lines))):
                self.stats.writebacks += 1
        lines[tag] = is_write
        return miss_latency

    def preload(self, addr: int) -> None:
        """Install the line holding ``addr`` without touching statistics.

        Used to warm caches before measurement, standing in for the
        paper's 2-billion-instruction fast-forward period.
        """
        line_addr = addr // self.line_bytes
        lines = self._sets[line_addr % self.num_sets]
        tag = line_addr // self.num_sets
        if tag in lines:
            return
        if len(lines) >= self.assoc:
            lines.pop(next(iter(lines)))
        lines[tag] = False

    def flush(self) -> None:
        """Invalidate every line (keeps statistics)."""
        for lines in self._sets:
            lines.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Cache {self.name} {self.size_bytes // 1024}KB "
                f"{self.assoc}-way {self.line_bytes}B lines>")
