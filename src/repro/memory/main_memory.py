"""Main memory timing model.

The paper's Table 1: infinite capacity, 100-cycle latency, split
transactions over a 32-byte bus.  We model a fixed access latency plus a
simple bus-occupancy term for wide lines (a 64-byte line needs two
32-byte bus beats).
"""

from __future__ import annotations

from .cache import MemoryLevel

__all__ = ["MainMemory"]


class MainMemory(MemoryLevel):
    """Flat DRAM model with fixed latency.

    Parameters
    ----------
    latency:
        Cycles from request to first data.
    bus_bytes:
        Bus width; each additional ``bus_bytes`` chunk of the transfer
        adds one cycle of occupancy.
    transfer_bytes:
        Bytes moved per access (one L2 line).
    """

    def __init__(self, latency: int = 100, bus_bytes: int = 32,
                 transfer_bytes: int = 64) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bus_bytes <= 0 or transfer_bytes <= 0:
            raise ValueError("bus widths must be positive")
        self.name = "memory"
        self.latency = latency
        self.bus_bytes = bus_bytes
        self.transfer_bytes = transfer_bytes
        self.accesses = 0
        self._access_latency = latency + self.transfer_cycles

    @property
    def transfer_cycles(self) -> int:
        """Bus beats beyond the first needed to move one line."""
        beats = (self.transfer_bytes + self.bus_bytes - 1) // self.bus_bytes
        return max(0, beats - 1)

    def access(self, addr: int, is_write: bool = False) -> int:
        self.accesses += 1
        return self._access_latency
