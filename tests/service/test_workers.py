"""Worker pool: resolution path, crash retry, timeout, shutdown-requeue."""

import sys
import threading
import time

import pytest

from repro.service.jobs import JobQueue, JobState, make_spec
from repro.service.workers import (JobTimeout, ShutdownRequested,
                                   WorkerCrash, WorkerPool)
from repro.sim import ExperimentRunner, ResultCache
from repro.sim.parallel import simulate_spec

INSTRUCTIONS = 400


def _pool(tmp_path=None, **kwargs):
    cache = ResultCache(str(tmp_path)) if tmp_path is not None else \
        ResultCache("")
    runner = ExperimentRunner(instructions=INSTRUCTIONS, cache=cache)
    queue = JobQueue(maxsize=16, calibration=runner.calibration)
    pool = WorkerPool(queue, runner, **kwargs)
    return queue, pool, runner


def _submit(queue, **fields):
    fields.setdefault("instructions", INSTRUCTIONS)
    job, _created = queue.submit(make_spec(**fields))
    return job


def test_pool_simulates_and_caches(tmp_path):
    queue, pool, runner = _pool(tmp_path, workers=2)
    pool.start()
    try:
        first = _submit(queue, benchmark="gzip", policy="dcg")
        other = _submit(queue, benchmark="gzip", policy="base")
        assert first.wait(timeout=60) and other.wait(timeout=60)
        assert first.state is JobState.DONE and first.source == "run"
        expected = simulate_spec(first.spec, runner.calibration)
        assert first.result.cycles == expected.cycles
        assert first.result.total_saving == expected.total_saving
        # repeat request: served from the in-memory memo, no new sim
        again = _submit(queue, benchmark="gzip", policy="dcg")
        assert again.wait(timeout=60)
        assert again.source == "memory"
        assert pool.simulated == 2
        assert pool.hits["memory"] == 1
    finally:
        pool.stop()


def test_served_miss_is_fingerprinted_once_at_submit(tmp_path, monkeypatch):
    """The queue's key files the result: a miss served with no
    checkpoint store costs one fingerprint, taken at submit."""
    from repro.service import jobs as jobs_module
    from repro.sim import checkpoint as checkpoint_module
    from repro.sim import runner as runner_module
    from repro.sim.cache import spec_fingerprint
    keyed = []

    def counting(spec, calibration=None):
        keyed.append(spec)
        return spec_fingerprint(spec, calibration)

    for module in (jobs_module, runner_module, checkpoint_module):
        monkeypatch.setattr(module, "spec_fingerprint", counting)
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    queue, pool, runner = _pool(tmp_path, workers=1)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60) and job.source == "run"
    finally:
        pool.stop()
    assert len(keyed) == 1 and runner.cache.stores == 1
    assert runner.cache.get(job.key).cycles == job.result.cycles


def test_seed_override_is_not_served_the_default_seed_result(tmp_path):
    """A seed=77 request after a default-seed one for the same
    (tag, benchmark, policy) must simulate, not hit the cached cell."""
    queue, pool, runner = _pool(tmp_path, workers=1)
    pool.start()
    try:
        default = _submit(queue, benchmark="gzip", policy="dcg")
        assert default.wait(timeout=60)
        seeded = _submit(queue, benchmark="gzip", policy="dcg", seed=77)
        assert seeded.wait(timeout=60)
        assert seeded.source == "run"
        assert seeded.result.cycles != default.result.cycles
        expected = simulate_spec(seeded.spec, runner.calibration)
        assert seeded.result.cycles == expected.cycles
    finally:
        pool.stop()
    # a fresh pool over the same disk cache keeps the two apart too
    queue, pool, _runner = _pool(tmp_path, workers=1)
    pool.start()
    try:
        again = _submit(queue, benchmark="gzip", policy="dcg", seed=77)
        assert again.wait(timeout=60)
        assert again.source == "disk"
        assert again.result.cycles == seeded.result.cycles
    finally:
        pool.stop()


def test_fresh_pool_hits_disk_cache(tmp_path):
    queue, pool, _runner = _pool(tmp_path, workers=1)
    pool.start()
    try:
        job = _submit(queue, benchmark="mcf", policy="dcg")
        assert job.wait(timeout=60) and job.source == "run"
    finally:
        pool.stop()
    # same disk cache, brand-new process-level state
    queue2, pool2, _ = _pool(tmp_path, workers=1)
    pool2.start()
    try:
        job2 = _submit(queue2, benchmark="mcf", policy="dcg")
        assert job2.wait(timeout=60)
        assert job2.state is JobState.DONE and job2.source == "disk"
        assert pool2.simulated == 0
        assert job2.result.cycles == job.result.cycles
    finally:
        pool2.stop()


def test_counters_lose_no_update_under_concurrent_workers():
    """Every worker thread bumps the pool's counters: with more threads
    than cores and a tiny switch interval, no increment is lost."""
    _queue, pool, _runner = _pool(workers=1)
    per_thread, threads = 20_000, 8

    def bump():
        for _ in range(per_thread):
            pool._count("retries")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=bump) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert pool.retries == per_thread * threads
    assert pool.metrics()["retries"] == per_thread * threads


def test_crash_is_retried_once(tmp_path):
    calls = []

    def flaky(spec):
        calls.append(spec.policy)
        if len(calls) == 1:
            raise WorkerCrash("worker exited with code -9")
        return simulate_spec(spec)

    queue, pool, _ = _pool(tmp_path, workers=1, compute=flaky)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60)
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert pool.retries == 1
        assert len(calls) == 2
    finally:
        pool.stop()


def test_double_crash_fails_the_job(tmp_path):
    from repro.obs.events import configure_journal, read_events

    def always_crashes(_spec):
        raise WorkerCrash("worker exited with code -11")

    journal_path = str(tmp_path / "events.jsonl")
    configure_journal(path=journal_path)
    try:
        queue, pool, _ = _pool(workers=1, compute=always_crashes)
        pool.start()
        try:
            job = _submit(queue, benchmark="gzip", policy="dcg")
            assert job.wait(timeout=60)
            assert job.state is JobState.FAILED
            assert "code -11" in job.error
            assert job.attempts == 2
            assert pool.retries == 1
            # the retry's crash used to escape uncounted: the metric
            # read 1 for a twice-crashed job and the second crash left
            # no worker.crash journal event
            assert pool.crashes == 2
            crash_events = [event for event in read_events(journal_path)
                            if event["kind"] == "worker.crash"]
            assert len(crash_events) == 2
            assert [event["attempt"] for event in crash_events] == [1, 2]
        finally:
            pool.stop()
    finally:
        configure_journal()


def test_timeout_fails_without_retry():
    def too_slow(spec):
        raise JobTimeout(f"{spec.benchmark} exceeded the 1s per-job timeout")

    queue, pool, _ = _pool(workers=1, compute=too_slow)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60)
        assert job.state is JobState.FAILED
        assert "timeout" in job.error
        assert job.attempts == 1             # timeouts are not retried
        assert pool.timeouts == 1
    finally:
        pool.stop()


def test_unexpected_error_fails_with_type_name():
    def broken(_spec):
        raise ZeroDivisionError("oops")

    queue, pool, _ = _pool(workers=1, compute=broken)
    pool.start()
    try:
        job = _submit(queue, benchmark="gzip", policy="dcg")
        assert job.wait(timeout=60)
        assert job.state is JobState.FAILED
        assert job.error == "ZeroDivisionError: oops"
    finally:
        pool.stop()


def test_dead_child_reports_real_exit_code(monkeypatch):
    """A child that dies without sending is reported with its actual
    exit code, not "code None".

    ``Process.exitcode`` is None until the child is joined; the crash
    paths used to format the message before joining and raced the OS.
    """
    import os

    import repro.service.workers as workers_mod

    def dies_without_sending(conn, _spec, _calibration, context=None):
        conn.close()
        os._exit(7)

    monkeypatch.setattr(workers_mod, "_child_entry", dies_without_sending)
    spec = make_spec("gzip", "dcg", instructions=300)
    with pytest.raises(WorkerCrash) as info:
        workers_mod.compute_in_subprocess(spec, None, timeout=30.0)
    assert "code 7" in str(info.value)
    assert "None" not in str(info.value)


def test_subprocess_compute_matches_inline_and_times_out():
    """The real subprocess path: correct results, enforced deadline."""
    spec = make_spec("gzip", "dcg", instructions=300)
    from repro.service.workers import compute_in_subprocess
    result = compute_in_subprocess(spec, None, timeout=120.0)
    inline = simulate_spec(spec)
    assert result.cycles == inline.cycles
    assert result.total_saving == pytest.approx(inline.total_saving)
    slow = make_spec("gzip", "dcg", instructions=2_000_000)
    with pytest.raises(JobTimeout, match="per-job timeout"):
        compute_in_subprocess(slow, None, timeout=0.2)


def test_shutdown_requeues_inflight_job():
    """An accepted job survives shutdown as a queued entry, not a loss."""
    started = threading.Event()
    holder = {}

    def blocking(_spec):
        # mimics the subprocess path: blocks until the pool starts
        # stopping, then surfaces ShutdownRequested
        started.set()
        deadline = time.monotonic() + 30
        while not holder["pool"].stopping and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ShutdownRequested("pool stopping")

    queue, pool, _ = _pool(workers=1, compute=blocking)
    holder["pool"] = pool
    pool.start()
    job = _submit(queue, benchmark="gzip", policy="dcg")
    assert started.wait(timeout=10)
    assert job.state is JobState.RUNNING
    pool.stop()
    assert job.state is JobState.QUEUED
    assert job.requeues == 1
    assert queue.depth == 1
    assert queue.counters()["requeued"] == 1
    assert not job.finished                  # neither done nor failed


def test_stop_drains_nothing_new():
    """Workers stop picking jobs once stop is requested; queued jobs
    stay queued for a later pool."""
    queue, pool, _ = _pool(workers=1)
    pool.start()
    pool.stop()
    job = _submit(queue, benchmark="gzip", policy="dcg")
    time.sleep(0.2)
    assert job.state is JobState.QUEUED
