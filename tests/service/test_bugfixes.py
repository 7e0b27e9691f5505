"""Regression tests for the cache/clock/deadline bugfix sweep."""

import os
import time

import pytest

from repro.service import ServiceClient, ServiceTimeout, SimulationService
from repro.sim import ResultCache, Simulator
from repro.sim import cache as cache_mod


@pytest.fixture(scope="module")
def result():
    return Simulator().run_benchmark("gzip", "dcg", instructions=400)


# -- ResultCache.clear() / put() temp-file orphans --------------------------

def _orphan(cache, key, age_seconds=0.0):
    """Plant a ``*.json.tmp.<pid>`` orphan the way a killed writer would."""
    path = cache._path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.99999"
    with open(tmp, "w") as handle:
        handle.write('{"half": "written')
    if age_seconds:
        stamp = time.time() - age_seconds
        os.utime(tmp, (stamp, stamp))
    return tmp


def test_clear_removes_tmp_orphans(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    key = "aa" + "0" * 62
    cache.put(key, result)
    orphan = _orphan(cache, "ab" + "0" * 62)
    assert cache.clear() == 2                # the entry AND the orphan
    assert not os.path.exists(orphan)
    assert cache.get(key) is None


def test_clear_resets_counters(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    key = "aa" + "0" * 62
    cache.put(key, result)
    cache.get(key)
    cache.get("bb" + "0" * 62)
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
    cache.clear()
    # the lookups those counters described are gone with the entries
    assert (cache.hits, cache.misses, cache.stores) == (0, 0, 0)
    assert cache.disabled_lookups == 0


def test_put_sweeps_stale_tmp_orphans(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    key = "cc" + "0" * 62
    stale = _orphan(cache, key,
                    age_seconds=cache_mod.STALE_TMP_SECONDS + 60)
    cache.put(key, result)
    assert not os.path.exists(stale)         # swept on the way in
    assert cache.get(key).cycles == result.cycles


def test_put_spares_recent_tmp_files(tmp_path, result):
    """A fresh temp file belongs to a live concurrent writer."""
    cache = ResultCache(str(tmp_path))
    key = "dd" + "0" * 62
    live = _orphan(cache, key, age_seconds=0.0)
    cache.put(key, result)
    assert os.path.exists(live)
    assert cache.get(key).cycles == result.cycles


# -- ServiceClient._collect_result deadline clamp ---------------------------

def test_expired_deadline_raises_promptly_without_blocking():
    """A passed batch deadline used to be clamped to a >= 1 s poll per
    job; it must now raise immediately, without touching the network."""
    client = ServiceClient("http://127.0.0.1:9", retries=0, backoff=0.01)
    start = time.monotonic()
    with pytest.raises(ServiceTimeout, match="deadline already passed"):
        client._collect_result("cafebabe0001", {"benchmark": "gzip"},
                               deadline=time.monotonic() - 5.0)
    assert time.monotonic() - start < 0.5


# -- monotonic uptime -------------------------------------------------------

def test_uptime_survives_wall_clock_step(monkeypatch, tmp_path):
    """An NTP step (wall clock jumping back an hour) must not produce a
    negative uptime; ``started_at`` stays wall-clock for display."""
    service = SimulationService(instructions=300, workers=1,
                                cache=ResultCache(""))
    started_at = service.started_at
    monkeypatch.setattr("repro.service.server.time.time",
                        lambda: started_at - 3600.0)
    assert 0.0 <= service.uptime_seconds < 60.0
    assert service.metrics()["uptime_seconds"] >= 0.0
    assert service.health()["uptime_seconds"] >= 0.0
    assert service.metrics()["started_at"] == started_at
    # the Prometheus gauge reads the same monotonic anchor
    prom = service.prom_metrics()
    line = next(l for l in prom.splitlines()
                if l.startswith("repro_service_uptime_seconds "))
    assert float(line.split()[-1]) >= 0.0

