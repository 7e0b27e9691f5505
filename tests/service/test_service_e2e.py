"""End-to-end service tests over real HTTP on an ephemeral port."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (BackpressureError, JobFailed, ServiceClient,
                           ServiceError, ServiceServer, SimulationService)
from repro.service.workers import ShutdownRequested
from repro.sim import ExperimentRunner, ResultCache

INSTRUCTIONS = 400

BATCH = [
    {"benchmark": "gzip", "policy": "dcg"},
    {"benchmark": "gzip", "policy": "base"},
    {"benchmark": "mcf", "policy": "dcg"},
]


@pytest.fixture
def service_url(tmp_path):
    """A running service + server on an ephemeral port; yields its URL."""
    service = SimulationService(instructions=INSTRUCTIONS, workers=2,
                                queue_depth=32,
                                cache=ResultCache(str(tmp_path / "cache")))
    server = ServiceServer(service, port=0)
    server.start_background()
    yield server.url, service
    server.shutdown()
    server.server_close()
    service.stop()


def test_healthz_and_metrics(service_url):
    url, _service = service_url
    client = ServiceClient(url)
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    metrics = client.metrics()
    assert metrics["queue_max_depth"] == 32
    assert metrics["submitted"] == 0


def test_second_batch_served_entirely_from_cache(service_url):
    """The acceptance scenario: two identical batches over HTTP; the
    second triggers zero new simulations and /metrics shows the hits."""
    url, _service = service_url
    client = ServiceClient(url)

    jobs = client.submit(BATCH)
    assert len(jobs) == 3
    first = [client.result(job["id"], timeout=120) for job in jobs]
    metrics = client.metrics()
    assert metrics["simulated"] == 3
    assert metrics["done"] == 3

    again = client.submit(BATCH)
    second = [client.result(job["id"], timeout=120) for job in again]
    metrics = client.metrics()
    assert metrics["simulated"] == 3          # zero new simulations
    assert metrics["cache_hits_memory"] == 3  # ...and the hits are counted
    assert metrics["cache_hit_ratio"] == pytest.approx(0.5)
    for a, b in zip(first, second):
        assert a.cycles == b.cycles
        assert a.total_saving == b.total_saving
        assert a.ipc == b.ipc


def test_restarted_service_replays_from_disk(tmp_path):
    """A fresh service over the same cache dir serves disk hits only."""
    root = str(tmp_path / "cache")

    def boot():
        service = SimulationService(instructions=INSTRUCTIONS, workers=2,
                                    cache=ResultCache(root))
        server = ServiceServer(service, port=0)
        server.start_background()
        return service, server

    service, server = boot()
    try:
        client = ServiceClient(server.url)
        for job in client.submit(BATCH):
            client.result(job["id"], timeout=120)
        assert client.metrics()["simulated"] == 3
    finally:
        server.shutdown()
        server.server_close()
        service.stop()

    service, server = boot()                 # same disk, new everything
    try:
        client = ServiceClient(server.url)
        for job in client.submit(BATCH):
            client.result(job["id"], timeout=120)
        metrics = client.metrics()
        assert metrics["simulated"] == 0
        assert metrics["cache_hits_disk"] == 3
        assert metrics["cache_hit_ratio"] == 1.0
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def test_identical_inflight_submissions_share_a_job(service_url):
    url, _service = service_url
    client = ServiceClient(url)
    batch = [{"benchmark": "lucas", "policy": "dcg"}] * 3
    jobs = client.submit(batch)
    assert len({job["id"] for job in jobs}) == 1
    assert [job["deduped"] for job in jobs] == [False, True, True]
    result = client.result(jobs[0]["id"], timeout=120)
    assert result.benchmark == "lucas"


def test_bad_requests_are_400(service_url, capsys):
    url, _service = service_url
    client = ServiceClient(url)
    with pytest.raises(ServiceError, match="unknown benchmark") as excinfo:
        client.submit_one(benchmark="quake3")
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError, match="policy") as excinfo:
        client.submit_one(benchmark="gzip", policy="warp-drive")
    assert excinfo.value.status == 400
    for tag in ("int_alus=0", "int_alus=-2"):
        with pytest.raises(ServiceError, match="unit count") as excinfo:
            client.submit_one(benchmark="gzip", tag=tag)
        assert excinfo.value.status == 400
    with pytest.raises(ServiceError, match="no such job") as excinfo:
        client.status("feedfacecafe")
    assert excinfo.value.status == 404
    # malformed bodies and unknown endpoints, sent raw past the client
    for method, path, body, status, error in (
            ("POST", "/v1/runs", b"", 400, "empty request body"),
            ("POST", "/v1/runs", b"[1,2]", 400,
             "request body must be a JSON object"),
            ("POST", "/v1/runs", b"{bad", 400, ""),
            ("POST", "/v1/runs", b'{"runs":[1]}', 400,
             "each run must be a JSON object"),
            ("POST", "/v1/runs", b'{"runs":"x"}', 400,
             "runs must be a JSON list"),
            ("POST", "/v1/runs", b'{"benchmark":["gzip"]}', 400,
             "benchmark must be a string"),
            ("POST", "/v1/runs", b'{"benchmark":"gzip","instructions":[1]}',
             400, "instructions must be an integer"),
            ("POST", "/v1/runs", b'{"benchmark":"gzip","instructions":1.9}',
             400, "instructions must be an integer"),
            ("POST", "/v1/runs", b'{"benchmark":"gzip","instructions":0}',
             400, "instructions must be positive"),
            # an L1D with no ports would deadlock its worker
            ("POST", "/v1/runs", b'{"benchmark":"gzip","tag":"ports=0"}',
             400, "cache ports must be >= 1"),
            ("POST", "/v1/runs", b'{"benchmark":"gzip","tag":"ports=-1"}',
             400, "cache ports must be >= 1"),
            ("POST", "/v1/runs", b'{"benchmark":"gzip","priority":null}',
             400, "unknown field(s) 'priority'"),
            ("POST", "/v1/runs", b'{"benchmark":"gzip","instrucions":123}',
             400, "unknown field(s) 'instrucions'"),
            ("POST", "/v1/nope", b"{}", 404, "no such endpoint"),
            ("GET", "/v1/nope", None, 404, "no such endpoint")):
        request = urllib.request.Request(f"{url}{path}", data=body,
                                         method=method)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == status, (method, path, body)
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["error"] and payload["error"].startswith(error)
    # every rejection was answered, none escaped the handler
    assert "Traceback" not in capsys.readouterr().err


def test_bad_result_timeout_is_400(capsys):
    """``?timeout=`` on the result endpoint: a non-numeric or non-finite
    value is answered 400 with a JSON error, never a dropped connection,
    and a negative one waits not at all."""
    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                cache=ResultCache(""))
    # the pool never starts, so the job stays pending throughout
    server = ServiceServer(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        job = ServiceClient(server.url).submit_one(benchmark="gzip")
        result_url = f"{server.url}/v1/runs/{job['id']}/result"
        for raw in ("abc", "inf", "-inf", "nan"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{result_url}?timeout={raw}",
                                       timeout=10)
            assert excinfo.value.code == 400, raw
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["error"].startswith("timeout must be"), raw
        start = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{result_url}?timeout=-5", timeout=10)
        assert excinfo.value.code == 504
        assert time.monotonic() - start < 5.0
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    assert "Traceback" not in capsys.readouterr().err


def test_rejected_batch_queues_nothing(service_url):
    """One bad run rejects the whole batch before any of it is queued."""
    url, service = service_url
    client = ServiceClient(url)
    with pytest.raises(ServiceError, match="unknown benchmark") as excinfo:
        client.submit([{"benchmark": "gzip"}, {"benchmark": "nope"}])
    assert excinfo.value.status == 400
    assert service.queue.counters()["submitted"] == 0


def test_backpressure_over_http(tmp_path):
    """A full queue answers 429; the client surfaces a typed error."""
    release = threading.Event()

    def stuck(_spec):
        if not release.wait(timeout=30):
            raise ShutdownRequested("pool stopping")
        raise ShutdownRequested("pool stopping")

    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                queue_depth=2, compute=stuck,
                                cache=ResultCache(""))
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        client = ServiceClient(server.url)
        # worker grabs the first job and blocks; the next two fill the
        # bounded queue; the fourth must be rejected with 429
        accepted = [client.submit_one(benchmark=b, policy="dcg")
                    for b in ("gzip", "mcf", "gcc")]
        assert len(accepted) == 3
        deadline = time.monotonic() + 10
        while service.queue.depth < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BackpressureError) as excinfo:
            client.submit_one(benchmark="lucas", policy="dcg")
        assert excinfo.value.status == 429
        assert "retry" in str(excinfo.value)
        assert excinfo.value.payload["queue_max_depth"] == 2
        metrics = client.metrics()
        assert metrics["rejected"] == 1
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        service.stop()


def test_failed_job_surfaces_as_typed_error(tmp_path):
    def explodes(_spec):
        raise RuntimeError("simulated meltdown")

    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                compute=explodes, cache=ResultCache(""))
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        client = ServiceClient(server.url)
        job = client.submit_one(benchmark="gzip", policy="dcg")
        with pytest.raises(JobFailed, match="meltdown") as excinfo:
            client.result(job["id"], timeout=30)
        assert excinfo.value.payload["job"]["state"] == "failed"
        assert client.status(job["id"])["state"] == "failed"
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def test_runner_remote_mode_routes_misses_to_server(service_url):
    """ExperimentRunner(remote=client): local misses travel over HTTP,
    local cache layers still answer repeats."""
    url, service = service_url
    client = ServiceClient(url)
    runner = ExperimentRunner(instructions=INSTRUCTIONS,
                              cache=ResultCache(""), remote=client)
    results = runner.run_many([("gzip", "dcg"), ("gzip", "base")])
    assert service.pool.simulated == 2       # work happened server-side
    local = ExperimentRunner(instructions=INSTRUCTIONS,
                             cache=ResultCache(""))
    expected = local.run("gzip", "dcg")
    assert results[0].cycles == expected.cycles
    assert results[0].total_saving == expected.total_saving
    # repeats are memory hits in the local runner — no extra HTTP jobs
    before = service.queue.submitted
    runner.run("gzip", "dcg")
    assert service.queue.submitted == before


def test_submit_cli_against_live_server(service_url, capsys):
    from repro.cli import main
    url, _service = service_url
    assert main(["submit", "gzip", "--policy", "dcg", "--server", url,
                 "--wait", "--timeout", "120"]) == 0
    captured = capsys.readouterr()
    assert "queued as job" in captured.err
    assert "gzip under dcg" in captured.out
    assert "saved" in captured.out
    # second submission: answered from the service's cache
    assert main(["submit", "gzip", "--policy", "dcg", "--server", url,
                 "--wait", "--timeout", "120"]) == 0
    assert "gzip under dcg" in capsys.readouterr().out
