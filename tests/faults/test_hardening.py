"""Service hardening: deadlines, drain, fatal closure, jittered backoff,
partial-batch recovery, restart resubmission."""

import threading
import time

import pytest

from repro.service import (BackpressureError, JobFailed, ServiceClient,
                           ServiceClosed, ServiceError, ServiceServer,
                           ServiceTimeout, SimulationService)
from repro.sim import ResultCache
from repro.sim.parallel import RunSpec, simulate_spec

INSTRUCTIONS = 400


def _boot(tmp_path=None, **kwargs):
    kwargs.setdefault("instructions", INSTRUCTIONS)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache", ResultCache(
        str(tmp_path / "cache") if tmp_path is not None else ""))
    service = SimulationService(**kwargs)
    server = ServiceServer(service, port=0)
    server.start_background()
    return service, server


def _shutdown(service, server):
    server.shutdown()
    server.server_close()
    service.stop()


def _specs(*pairs):
    return [RunSpec(tag="baseline", benchmark=b, policy=p,
                    instructions=INSTRUCTIONS, seed=1) for b, p in pairs]


# -- deadline propagation ---------------------------------------------------

def test_expired_job_is_skipped_not_computed():
    """A deadline nobody is waiting on any more fails fast instead of
    burning a worker."""
    release = threading.Event()
    computed = []
    holder = {}

    def gated_compute(spec):
        computed.append(spec.benchmark)
        if spec.benchmark == "gzip":
            release.wait(timeout=30)     # hold the only worker hostage
        return simulate_spec(spec, holder["service"].runner.calibration)

    service, server = _boot(compute=gated_compute)
    holder["service"] = service
    try:
        client = ServiceClient(server.url)
        # first job occupies the only worker; the second carries a
        # 0.2s deadline and waits behind it
        blocker = client.submit_one(benchmark="gzip", policy="dcg")
        doomed = client.submit_one(benchmark="mcf", policy="dcg",
                                   deadline_seconds=0.2)
        time.sleep(0.5)                  # let the deadline lapse
        release.set()                    # unblock the worker
        with pytest.raises(JobFailed, match="deadline expired"):
            client.result(doomed["id"], timeout=30)
        assert service.pool.expired == 1
        assert computed == ["gzip"]      # mcf never reached a simulator
        assert client.metrics()["expired"] == 1
        # the blocker was never on a deadline and completes normally
        assert client.result(blocker["id"], timeout=60).benchmark == "gzip"
    finally:
        release.set()
        _shutdown(service, server)


def test_deadline_dedup_keeps_widest_interest():
    from repro.service.jobs import JobQueue, make_spec
    queue = JobQueue(maxsize=8)
    spec = make_spec("gzip", instructions=INSTRUCTIONS)
    now = time.monotonic()
    job, created = queue.submit(spec, deadline_at=now + 1)
    assert created and job.deadline_at == now + 1
    # a later, more patient client extends the deadline
    queue.submit(spec, deadline_at=now + 9)
    assert job.deadline_at == now + 9
    # an earlier deadline never narrows it
    queue.submit(spec, deadline_at=now + 2)
    assert job.deadline_at == now + 9
    # and someone willing to wait forever clears it outright
    queue.submit(spec, deadline_at=None)
    assert job.deadline_at is None
    queue.submit(spec, deadline_at=now + 1)
    assert job.deadline_at is None       # forever still wins


def test_malformed_deadline_header_is_ignored():
    service, server = _boot()
    try:
        import json
        import urllib.request
        request = urllib.request.Request(
            f"{server.url}/v1/runs",
            data=json.dumps({"benchmark": "gzip"}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Repro-Deadline": "not-a-number"},
            method="POST")
        with urllib.request.urlopen(request, timeout=10) as reply:
            payload = json.loads(reply.read())
        job = service.queue.get(payload["jobs"][0]["id"])
        assert job.deadline_at is None
    finally:
        _shutdown(service, server)


# -- graceful drain ---------------------------------------------------------

def test_drain_finishes_owned_work_and_refuses_new(tmp_path):
    service, server = _boot(tmp_path, workers=2)
    try:
        client = ServiceClient(server.url)
        jobs = client.submit([{"benchmark": "gzip", "policy": "dcg"},
                              {"benchmark": "mcf", "policy": "dcg"}])
        status = client.drain()
        assert status["status"] == "draining"
        # new work is refused with the fatal, typed error
        with pytest.raises(ServiceClosed) as excinfo:
            client.submit_one(benchmark="gcc", policy="dcg")
        assert excinfo.value.status == 503
        assert excinfo.value.payload.get("closed") is True
        # ...but everything accepted before the drain still completes
        # and stays fetchable
        results = [client.result(job["id"], timeout=120) for job in jobs]
        assert {r.benchmark for r in results} == {"gzip", "mcf"}
        # workers wind down once the backlog empties; health reports
        # draining rather than degraded-dead-workers
        deadline = time.monotonic() + 30
        while service.pool.alive_workers and time.monotonic() < deadline:
            time.sleep(0.05)
        health = client.healthz()
        assert health["draining"] is True
        assert health["status"] == "ok"
        # drain is idempotent
        assert client.drain()["status"] == "draining"
    finally:
        _shutdown(service, server)


def test_run_specs_fails_fast_on_draining_server(tmp_path):
    service, server = _boot(tmp_path)
    try:
        client = ServiceClient(server.url, retries=1, backoff=0.05)
        client.drain()
        started = time.monotonic()
        with pytest.raises(ServiceClosed):
            client.run_specs(_specs(("gzip", "dcg")), timeout=60)
        # fatal means fatal: no 60s of futile backpressure retries
        assert time.monotonic() - started < 5
    finally:
        _shutdown(service, server)


def test_drain_cli(tmp_path, capsys):
    from repro.cli import main
    service, server = _boot(tmp_path)
    try:
        assert main(["drain", "--server", server.url]) == 0
        assert "draining" in capsys.readouterr().err
        assert service.queue.closed
    finally:
        _shutdown(service, server)


# -- jittered backoff -------------------------------------------------------

def test_connection_retries_use_jittered_exponential_backoff(monkeypatch):
    sleeps = []
    monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
    client = ServiceClient("http://127.0.0.1:9", retries=3, backoff=0.2,
                           timeout=0.1, seed=42)
    with pytest.raises(ServiceError, match="cannot reach"):
        client.healthz()
    assert len(sleeps) == 3
    # equal jitter: each sleep lands in [delay/2, delay) for the
    # doubling series 0.2, 0.4, 0.8 — never a fixed lockstep value
    for expected, actual in zip((0.2, 0.4, 0.8), sleeps):
        assert expected / 2 <= actual < expected
    # seeded: the same client configuration reproduces the schedule
    replay = []
    monkeypatch.setattr("repro.service.client.time.sleep", replay.append)
    again = ServiceClient("http://127.0.0.1:9", retries=3, backoff=0.2,
                          timeout=0.1, seed=42)
    with pytest.raises(ServiceError):
        again.healthz()
    assert replay == sleeps


# -- partial-batch recovery -------------------------------------------------

def test_backpressure_at_deadline_reports_accepted_ids(monkeypatch):
    """The old behaviour silently discarded every id already collected
    when the deadline hit; now the exception carries them."""
    client = ServiceClient("http://127.0.0.1:9", backoff=0.05)
    calls = []

    def always_backpressured(fields, deadline_seconds=None):
        calls.append(list(fields))
        # the first rejection still accepted one job; later ones none
        jobs = [{"id": "job-0"}] if len(calls) == 1 else []
        raise BackpressureError("queue depth limit reached", 429,
                                {"jobs": jobs})

    monkeypatch.setattr(client, "submit", always_backpressured)
    with pytest.raises(BackpressureError) as excinfo:
        client.run_specs(_specs(("gzip", "dcg"), ("mcf", "dcg"),
                                ("gcc", "dcg"), ("lucas", "dcg")),
                         timeout=0.4)
    exc = excinfo.value
    assert exc.accepted_job_ids == ["job-0"]   # partial progress kept
    assert exc.payload["accepted_job_ids"] == ["job-0"]
    # the retry loop shrank the resubmission to the unaccepted tail
    assert [len(fields) for fields in calls[:2]] == [4, 3]


def test_collect_result_resubmits_after_404(tmp_path):
    """A 404 mid-collection (server restarted, id forgotten) resubmits
    the spec instead of dying — the grid completes."""
    service, server = _boot(tmp_path)
    try:
        client = ServiceClient(server.url)
        field = {"benchmark": "gzip", "policy": "dcg", "tag": "baseline",
                 "instructions": INSTRUCTIONS, "seed": 1}
        deadline = time.monotonic() + 120
        result = client._collect_result("feedfacecafe", field, deadline)
        assert result.benchmark == "gzip"
        # past the deadline it fails promptly — no resubmit loop, no
        # network wait (the old clamp blocked >= 1 s per job here)
        with pytest.raises(ServiceTimeout, match="deadline already"):
            client._collect_result("feedfacecafe", field,
                                   time.monotonic() - 1)
    finally:
        _shutdown(service, server)
