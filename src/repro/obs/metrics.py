"""Bounded-reservoir latency histogram behind the service's ``/metrics``.

The worker pool's ``p50_seconds``/``p95_seconds`` come from a
:class:`Histogram`: exact ``count``/``sum``/``min``/``max`` plus a
**bounded reservoir** (Vitter's Algorithm R, seeded RNG) for
percentiles, so a long-lived server's latency samples occupy O(1)
memory no matter how many jobs it serves.

Everything is standard library and thread-safe.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from typing import List

__all__ = ["Histogram"]


class Histogram:
    """Bounded-reservoir histogram: O(1) memory, percentile queries.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles are nearest-rank over a ``reservoir_size``-sample
    uniform reservoir (Algorithm R), which is the textbook fix for the
    grow-forever latency lists a long-lived server otherwise
    accumulates.  The replacement RNG is seeded from ``name`` so runs
    are reproducible.
    """

    def __init__(self, name: str, reservoir_size: int = 512) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir_size must be positive")
        self.name = name
        self.reservoir_size = reservoir_size
        self._lock = threading.Lock()
        self._samples: List[float] = []
        # crc32, not hash(): str hashing is per-process randomised, so
        # the promised "reproducible runs" only held within one process
        self._rng = random.Random(0x5EED ^ zlib.crc32(name.encode()))
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            if len(self._samples) < self.reservoir_size:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self._count)
                if slot < self.reservoir_size:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir; 0.0 when empty."""
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
            index = min(len(ordered) - 1,
                        int(round(q * (len(ordered) - 1))))
            return ordered[index]
