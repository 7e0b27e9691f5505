"""Each injection site fires through its real recovery path."""

import os

import pytest

from repro.faults import configure_faults, get_plan
from repro.service import (QueueFull, ServiceClient, ServiceServer,
                           SimulationService)
from repro.service.jobs import JobQueue, JobState, make_spec
from repro.service.workers import WorkerPool
from repro.sim import ExperimentRunner, ResultCache
from repro.sim.cache import fingerprint as cache_fingerprint
from repro.sim.configs import baseline_config
from repro.workloads.profiles import get_profile

INSTRUCTIONS = 400


def _pool(tmp_path=None, **kwargs):
    cache = ResultCache(str(tmp_path)) if tmp_path is not None else \
        ResultCache("")
    runner = ExperimentRunner(instructions=INSTRUCTIONS, cache=cache)
    queue = JobQueue(maxsize=16, calibration=runner.calibration)
    pool = WorkerPool(queue, runner, **kwargs)
    return queue, pool, runner


def test_queue_full_injection_rejects_then_recovers():
    configure_faults("queue.full:nth=1,times=2")
    queue = JobQueue(maxsize=16)
    with pytest.raises(QueueFull, match="depth limit"):
        queue.submit(make_spec("gzip", instructions=INSTRUCTIONS))
    with pytest.raises(QueueFull):
        queue.submit(make_spec("mcf", instructions=INSTRUCTIONS))
    # the times= cap has been reached: the same submission now lands
    job, created = queue.submit(make_spec("gzip",
                                          instructions=INSTRUCTIONS))
    assert created and job.state is JobState.QUEUED
    assert queue.rejected == 2
    assert queue.submitted == 1


def test_worker_crash_injection_recovers_via_retry(tmp_path):
    configure_faults("worker.crash:nth=1")
    queue, pool, runner = _pool(tmp_path, workers=1)
    pool.start()
    try:
        job, _ = queue.submit(make_spec("gzip", "dcg",
                                        instructions=INSTRUCTIONS))
        assert job.wait(timeout=60)
        # nth=1 crashes every first attempt; the retry (attempt 2, not
        # injected) always recovers — the job completes anyway
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert pool.crashes == 1
        assert pool.retries == 1
        counts = get_plan().counts()["worker.crash"]
        assert counts["injected"] == 1
    finally:
        pool.stop()
    # the produced result is bit-identical to an uninjected run
    configure_faults(None)
    clean = ExperimentRunner(instructions=INSTRUCTIONS,
                             cache=ResultCache("")).run("gzip", "dcg")
    assert job.result.cycles == clean.cycles
    assert job.result.total_saving == clean.total_saving


def test_cache_corrupt_injection_forces_recompute(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    runner = ExperimentRunner(instructions=INSTRUCTIONS,
                              cache=ResultCache(str(tmp_path)))
    result = runner.run("gzip", "dcg")
    key = cache_fingerprint(baseline_config(), get_profile("gzip"), "dcg",
                            INSTRUCTIONS, runner.calibration,
                            get_profile("gzip").seed)
    cache = runner.cache
    path = cache.path(key)
    assert os.path.exists(path)

    configure_faults("cache.corrupt:nth=1,times=1")
    # the injected corruption drives the real tolerance path: parse
    # failure -> delete -> miss
    misses_before = cache.misses
    assert cache.get(key) is None
    assert not os.path.exists(path)
    assert cache.misses == misses_before + 1
    # recompute and re-store; the next read is a clean hit (times=1
    # spent) and bit-identical
    cache.put(key, result)
    loaded = cache.get(key)
    assert loaded is not None
    assert loaded.cycles == result.cycles
    assert get_plan().counts()["cache.corrupt"]["injected"] == 1


def test_cache_corrupt_arrivals_skip_cold_lookups(tmp_path):
    """Lookups with no file on disk don't advance the nth counter."""
    configure_faults("cache.corrupt:nth=1")
    cache = ResultCache(str(tmp_path))
    assert cache.get("deadbeef" * 8) is None       # cold: nothing to corrupt
    assert get_plan().counts()["cache.corrupt"]["arrivals"] == 0


def test_http_drop_injection_is_ridden_out_by_retry(tmp_path):
    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                cache=ResultCache(""))
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        configure_faults("http.drop:nth=2")
        client = ServiceClient(server.url, retries=3, backoff=0.01,
                               seed=1)
        # every second request dies before the wire; the client's
        # retry/backoff path absorbs each loss invisibly
        for _ in range(4):
            assert client.healthz()["status"] == "ok"
        counts = get_plan().counts()["http.drop"]
        assert counts["injected"] >= 2
    finally:
        configure_faults(None)
        server.shutdown()
        server.server_close()
        service.stop()
