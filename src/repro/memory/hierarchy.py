"""Cache hierarchy assembly (L1 I/D, shared L2, main memory)."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict

from .cache import Cache
from .main_memory import MainMemory

__all__ = ["CacheConfig", "HierarchyConfig", "CacheHierarchy"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry + latency for one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int
    ports: int = 1

    def __post_init__(self) -> None:
        # a cache with no ports never accepts an access: the core would
        # spin until the deadlock watchdog fires
        if self.ports < 1:
            raise ValueError(f"cache ports must be >= 1, got {self.ports}")


@dataclass(frozen=True)
class HierarchyConfig:
    """Table 1 memory system: 64KB 2-way 2-cycle L1 I/D, 2MB 8-way
    12-cycle L2, 100-cycle main memory."""

    l1i: CacheConfig = CacheConfig(64 * 1024, 2, 64, 2)
    l1d: CacheConfig = CacheConfig(64 * 1024, 2, 64, 2, ports=2)
    l2: CacheConfig = CacheConfig(2 * 1024 * 1024, 8, 64, 12)
    memory_latency: int = 100
    bus_bytes: int = 32


class CacheHierarchy:
    """Instantiated memory system shared by the timing pipeline."""

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        self.memory = MainMemory(latency=config.memory_latency,
                                 bus_bytes=config.bus_bytes,
                                 transfer_bytes=config.l2.line_bytes)
        self.l2 = Cache("L2", config.l2.size_bytes, config.l2.assoc,
                        config.l2.line_bytes, config.l2.hit_latency,
                        parent=self.memory)
        self.l1i = Cache("L1I", config.l1i.size_bytes, config.l1i.assoc,
                         config.l1i.line_bytes, config.l1i.hit_latency,
                         parent=self.l2)
        self.l1d = Cache("L1D", config.l1d.size_bytes, config.l1d.assoc,
                         config.l1d.line_bytes, config.l1d.hit_latency,
                         parent=self.l2)

    def copy(self) -> "CacheHierarchy":
        """An independent memory system in this one's state: one
        prewarmed hierarchy serves every pipeline of a task."""
        twin = CacheHierarchy.__new__(CacheHierarchy)
        twin.config = self.config
        twin.memory = copy.copy(self.memory)
        twin.l2 = self.l2.copy(parent=twin.memory)
        twin.l1i = self.l1i.copy(parent=twin.l2)
        twin.l1d = self.l1d.copy(parent=twin.l2)
        return twin

    @property
    def dcache_ports(self) -> int:
        return self.config.l1d.ports

    def load(self, addr: int) -> int:
        """Data-load latency in cycles."""
        return self.l1d.access(addr, is_write=False)

    def store(self, addr: int) -> int:
        """Data-store latency in cycles."""
        return self.l1d.access(addr, is_write=True)

    def fetch(self, addr: int) -> int:
        """Instruction-fetch latency in cycles."""
        return self.l1i.access(addr, is_write=False)

    def prewarm_data_region(self, base: int, size: int,
                            into_l1: bool = False) -> None:
        """Install a data region in the L2 (and optionally L1D).

        Models the cache state left behind by the paper's 2-billion-
        instruction fast-forward: the resident working set is already
        cached when measurement starts.
        """
        line = self.l2.line_bytes
        for addr in range(base, base + size, line):
            self.l2.preload(addr)
            if into_l1:
                self.l1d.preload(addr)

    def stats_table(self) -> Dict[str, Dict[str, float]]:
        """Nested dict of per-level hit/miss statistics."""
        out: Dict[str, Dict[str, float]] = {}
        for cache in (self.l1i, self.l1d, self.l2):
            out[cache.name] = {
                "accesses": cache.stats.accesses,
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "miss_rate": cache.stats.miss_rate,
                "writebacks": cache.stats.writebacks,
            }
        out["memory"] = {"accesses": self.memory.accesses}
        return out
