"""Cache hierarchy wiring and Table 1 latency conventions."""

import pytest

from repro.memory import CacheConfig, CacheHierarchy, HierarchyConfig, MainMemory


def test_table1_defaults():
    h = CacheHierarchy()
    assert h.l1d.size_bytes == 64 * 1024 and h.l1d.assoc == 2
    assert h.l1i.size_bytes == 64 * 1024
    assert h.l2.size_bytes == 2 * 1024 * 1024 and h.l2.assoc == 8
    assert h.l1d.hit_latency == 2
    assert h.l2.hit_latency == 12
    assert h.memory.latency == 100
    assert h.dcache_ports == 2


def test_latency_levels():
    h = CacheHierarchy()
    addr = 0x4000
    first = h.load(addr)          # cold: through L2 to memory
    assert first == 100 + 1       # latency + one extra 32B bus beat
    assert h.load(addr) == 2      # L1 hit
    h.l1d.flush()
    assert h.load(addr) == 12     # L1 miss, L2 hit


def test_store_allocates():
    h = CacheHierarchy()
    h.store(0x8000)
    assert h.l1d.contains(0x8000)
    assert h.load(0x8000) == 2


def test_fetch_uses_icache():
    h = CacheHierarchy()
    h.fetch(0x1000)
    assert h.l1i.stats.misses == 1
    h.fetch(0x1004)
    assert h.l1i.stats.hits == 1
    assert h.l1d.stats.accesses == 0


def test_l1_caches_share_l2():
    h = CacheHierarchy()
    h.fetch(0x9000)
    h.l1d.flush()
    # data access to the same line: L2 already holds it from the fetch
    assert h.load(0x9000) == 12


def test_prewarm_data_region():
    h = CacheHierarchy()
    h.prewarm_data_region(0x10000, 4096, into_l1=True)
    assert h.load(0x10000) == 2
    assert h.load(0x10000 + 4095) == 2
    h2 = CacheHierarchy()
    h2.prewarm_data_region(0x10000, 4096)   # L2 only
    assert h2.load(0x10000) == 12


def test_stats_table_structure():
    h = CacheHierarchy()
    h.load(0)
    table = h.stats_table()
    assert set(table) == {"L1I", "L1D", "L2", "memory"}
    assert table["L1D"]["misses"] == 1
    assert table["memory"]["accesses"] == 1


def test_custom_config():
    config = HierarchyConfig(
        l1d=CacheConfig(32 * 1024, 4, 32, 3, ports=1),
        memory_latency=50)
    h = CacheHierarchy(config)
    assert h.l1d.assoc == 4
    assert h.dcache_ports == 1
    assert h.memory.latency == 50


def test_memory_validation():
    with pytest.raises(ValueError):
        MainMemory(latency=-1)
    with pytest.raises(ValueError):
        MainMemory(bus_bytes=0)


def test_memory_transfer_cycles():
    assert MainMemory(100, bus_bytes=32, transfer_bytes=64).transfer_cycles == 1
    assert MainMemory(100, bus_bytes=64, transfer_bytes=64).transfer_cycles == 0
    assert MainMemory(100, bus_bytes=16, transfer_bytes=64).transfer_cycles == 3


def test_copy_is_independent_and_keeps_lru_order():
    """A copy starts in the original's exact state — lines, LRU order,
    dirty bits, counters — and neither sees the other's accesses."""
    h = CacheHierarchy()
    for addr in (0x4000, 0x8000, 0x4000 + 64 * 1024):
        h.load(addr)
    h.store(0x8000)
    twin = h.copy()
    assert twin.stats_table() == h.stats_table()
    for mine, theirs in ((twin.l1i, h.l1i), (twin.l1d, h.l1d),
                         (twin.l2, h.l2)):
        assert [list(s.items()) for s in mine._sets] == \
            [list(s.items()) for s in theirs._sets]
    assert twin.l1d.parent is twin.l2 and twin.l1i.parent is twin.l2
    assert twin.l2.parent is twin.memory is not h.memory
    twin.load(0xC000)
    assert not h.l1d.contains(0xC000) and not h.l2.contains(0xC000)
    assert h.memory.accesses == 3 and twin.memory.accesses == 4
    assert h.l1d.stats.misses + 1 == twin.l1d.stats.misses
