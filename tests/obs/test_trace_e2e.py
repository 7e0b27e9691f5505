"""Trace propagation end to end: HTTP submission -> queue -> worker subprocess.

The acceptance scenario for the observability layer: a job submitted
over HTTP flows through queue traffic into a simulation in a forked
worker subprocess, and every journal event about it lands in ONE file
under ONE trace ID, rooted at the batch's ``http.submit`` span, with
spans nesting across the thread and process boundaries.  A second pass
checks that ``repro events summarize`` reconstructs the same cache/job
numbers ``/metrics`` reports.
"""

import json
import os
import time

import pytest

from repro.obs import configure_journal, read_events, span, summarize_journal
from repro.service import ServiceClient, ServiceServer, SimulationService
from repro.service.jobs import make_spec
from repro.sim import ResultCache

INSTRUCTIONS = 400


@pytest.fixture
def traced_service(tmp_path, monkeypatch):
    """A subprocess-isolated service journaling to a tmp REPRO_LOG_DIR."""
    log_dir = tmp_path / "log"
    monkeypatch.setenv("REPRO_LOG_DIR", str(log_dir))
    configure_journal()                  # re-resolve from the environment
    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                timeout=120.0,
                                cache=ResultCache(str(tmp_path / "cache")))
    server = ServiceServer(service, port=0)
    server.start_background()
    yield server, service, str(log_dir / "events.jsonl")
    server.shutdown()
    server.server_close()
    service.stop()


def _events_once_settled(journal_path, span_name, timeout=10.0):
    """Journal events, after waiting for a trailing span to be written.

    The worker thread closes its ``job.run`` span moments *after*
    completing the job wakes the client, so reading the journal right
    after the result arrives can race that final write.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events = list(read_events(journal_path))
        if any(e["kind"] == "span" and e.get("name") == span_name
               for e in events):
            return events
        time.sleep(0.05)
    return list(read_events(journal_path))


def test_one_trace_across_http_and_subprocess(traced_service):
    server, _service, journal_path = traced_service
    client = ServiceClient(server.url)
    spec = make_spec("gzip", "dcg", instructions=INSTRUCTIONS)
    with span("test.root") as root:
        (result,) = client.run_specs([spec], timeout=300.0)
    assert result.benchmark == "gzip"

    events = _events_once_settled(journal_path, "job.run")
    by_kind = {}
    for event in events:
        by_kind.setdefault(event["kind"], []).append(event)
    spans = {e["name"]: e for e in by_kind["span"]}
    for name in ("client.run_specs", "http.submit", "job.run", "sim"):
        assert name in spans, f"missing span {name}"

    # the client's spans nest in the client's own trace
    assert spans["client.run_specs"]["trace_id"] == root.trace_id
    assert spans["client.run_specs"]["parent_span_id"] == root.span_id

    # the batch's http.submit span roots the job's trace
    trace_id = spans["http.submit"]["trace_id"]
    assert "parent_span_id" not in spans["http.submit"]

    # every lifecycle event of the job carries that trace ID
    for kind in ("job.enqueue", "job.dequeue", "job.complete",
                 "sim.start", "sim.finish"):
        assert kind in by_kind, f"missing {kind} events"
        for event in by_kind[kind]:
            assert event["trace_id"] == trace_id, kind

    # the simulation genuinely ran in another process, same journal
    sim_pids = {e["pid"] for e in by_kind["sim.finish"]}
    assert sim_pids and os.getpid() not in sim_pids

    # spans nest across the boundaries: job.run under http.submit (via
    # the job record), sim under job.run (via the fork arguments)
    for name in ("job.run", "sim"):
        assert spans[name]["trace_id"] == trace_id
    assert (spans["job.run"]["parent_span_id"]
            == spans["http.submit"]["span_id"])
    assert spans["sim"]["parent_span_id"] == spans["job.run"]["span_id"]


def test_summarize_matches_service_metrics(traced_service):
    server, _service, journal_path = traced_service
    client = ServiceClient(server.url)
    job = client.submit_one(benchmark="gzip", policy="dcg")
    client.result(job["id"], timeout=300.0)
    again = client.submit_one(benchmark="gzip", policy="dcg")
    client.result(again["id"], timeout=300.0)    # memory hit server-side

    metrics = client.metrics()
    # the worker thread journals job.complete moments after completion
    # wakes the waiting client — poll until both completions land
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        summary = summarize_journal(journal_path)
        if summary["jobs"]["completed"] == 2:
            break
        time.sleep(0.05)
    assert summary["jobs"]["completed"] == metrics["done"] == 2
    assert summary["jobs"]["failed"] == metrics["failed"] == 0
    assert (summary["cache"]["hits_memory"]
            == metrics["cache_hits_memory"] == 1)
    assert sum(e["count"] for e in summary["sims"].values()) \
        == metrics["simulated"] == 1
    # journal wall-clock is the inner portion of what /metrics measures
    # (the pool's number adds subprocess/bookkeeping overhead)
    seconds = summary["sims"]["gzip/dcg"]["seconds"]
    assert 0.0 < seconds <= metrics["sim_seconds_total"]


def test_failed_job_carries_worker_traceback(tmp_path, monkeypatch):
    """Satellite: a subprocess failure reaches the client with the
    worker-side traceback, and the journal records it."""
    log_dir = tmp_path / "log"
    monkeypatch.setenv("REPRO_LOG_DIR", str(log_dir))
    configure_journal()
    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                cache=ResultCache(""),
                                compute=_raise_with_context)
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        from repro.service import JobFailed
        client = ServiceClient(server.url)
        job = client.submit_one(benchmark="gzip", policy="dcg")
        with pytest.raises(JobFailed, match="synthetic failure") as excinfo:
            client.result(job["id"], timeout=60.0)
        payload_job = excinfo.value.payload["job"]
        assert payload_job["traceback"] is not None
        assert "ValueError" in payload_job["traceback"]
        events = list(read_events(str(log_dir / "events.jsonl")))
        (fail,) = [e for e in events if e["kind"] == "job.fail"]
        assert "synthetic failure" in fail["error"]
        assert "Traceback" in fail["traceback"]
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def _raise_with_context(_spec):
    raise ValueError("synthetic failure")


def test_degraded_health_returns_503(tmp_path):
    """Satellite: /healthz flips to 503 once the queue has been pinned
    at its bound for longer than degraded_after."""
    service = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                queue_depth=1, cache=ResultCache(""),
                                degraded_after=0.05)
    # never start the pool: submitted jobs sit in the queue forever
    server = ServiceServer(service, port=0)
    try:
        import threading
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        from repro.service import BackpressureError, ServiceError
        client = ServiceClient(server.url)
        assert client.healthz()["status"] == "ok"
        client.submit_one(benchmark="gzip", policy="dcg")
        with pytest.raises(BackpressureError):   # the queue is now full
            client.submit_one(benchmark="mcf", policy="dcg")
        import time
        time.sleep(0.2)                      # sustain saturation past bound
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert excinfo.value.payload["status"] == "degraded"
        assert any("saturated" in r
                   for r in excinfo.value.payload["reasons"])
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def test_compare_cli_produces_single_trace(tmp_path, monkeypatch, capsys):
    """`repro compare` with a journal: one invocation, one trace."""
    from repro.cli import main
    log_dir = tmp_path / "log"
    monkeypatch.setenv("REPRO_LOG_DIR", str(log_dir))
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    configure_journal()
    assert main(["compare", "gzip", "--instructions", "400",
                 "--jobs", "2"]) == 0
    capsys.readouterr()
    journal = str(log_dir / "events.jsonl")
    events = list(read_events(journal))
    traces = {e["trace_id"] for e in events if "trace_id" in e}
    assert len(traces) == 1
    roots = [e for e in events if e["kind"] == "span"
             and e["name"] == "cli.compare"]
    assert len(roots) == 1 and roots[0]["status"] == "ok"
    sims = [e for e in events if e["kind"] == "sim.finish"]
    assert len(sims) == 6                        # one per policy
    json.dumps(events)                           # whole journal is JSON
