"""Journal: emit/read round trips, env resolution, schema stability."""

import io
import json
import os
import signal
import time

from repro.obs import (EventJournal, JOURNAL_FILENAME, SCHEMA_VERSION,
                       configure_journal, get_journal, read_events, span)
from repro.obs.events import journal_path_from_env

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_event.json")


def test_emit_and_read_roundtrip(tmp_path):
    path = tmp_path / "events.jsonl"
    journal = EventJournal(path=str(path))
    journal.emit("sim.start", benchmark="gzip", policy="dcg",
                 instructions=500)
    journal.emit("sim.finish", benchmark="gzip", policy="dcg", seconds=0.25)
    events = list(read_events(str(path)))
    assert [e["kind"] for e in events] == ["sim.start", "sim.finish"]
    for event in events:
        assert event["v"] == SCHEMA_VERSION
        assert event["pid"] == os.getpid()
        assert isinstance(event["ts"], float)
    assert events[1]["seconds"] == 0.25
    assert journal.emitted == 2 and journal.dropped == 0


def test_disabled_journal_is_noop():
    journal = EventJournal()
    assert not journal.enabled
    journal.emit("anything", payload=1)      # must not raise
    assert journal.emitted == 0


def test_stream_journal():
    sink = io.StringIO()
    journal = EventJournal(stream=sink)
    journal.emit("cache.miss", benchmark="mcf")
    record = json.loads(sink.getvalue())
    assert record["kind"] == "cache.miss"
    assert record["benchmark"] == "mcf"


def test_emit_attaches_active_span_context():
    sink = io.StringIO()
    journal = configure_journal(stream=sink)
    with span("outer") as context:
        journal.emit("sim.start", benchmark="gzip")
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    start = next(e for e in events if e["kind"] == "sim.start")
    assert start["trace_id"] == context.trace_id
    assert start["span_id"] == context.span_id


def test_none_fields_are_dropped():
    sink = io.StringIO()
    EventJournal(stream=sink).emit("job.fail", error="boom", traceback=None)
    record = json.loads(sink.getvalue())
    assert record["error"] == "boom"
    assert "traceback" not in record


def test_corrupt_lines_are_skipped(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind": "ok", "v": 1}\n'
                    '{"kind": "trunc...\n'
                    "not json at all\n"
                    "[1, 2, 3]\n"
                    '{"kind": "also_ok", "v": 1}\n')
    kinds = [e["kind"] for e in read_events(str(path))]
    assert kinds == ["ok", "also_ok"]


def test_env_resolution(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LOG_DIR", str(tmp_path / "logs"))
    configure_journal()                      # re-resolve from environment
    journal = get_journal()
    assert journal.enabled
    assert journal.path == str(tmp_path / "logs" / JOURNAL_FILENAME)
    assert journal_path_from_env() == journal.path
    journal.emit("sim.start", benchmark="gzip")
    assert (tmp_path / "logs" / JOURNAL_FILENAME).exists()


def test_journal_never_raises_on_write_failure(tmp_path):
    journal = EventJournal(path=str(tmp_path))   # a directory: open() fails
    journal._dir_ready = True
    journal.emit("sim.start")
    assert journal.dropped == 1


def test_forked_child_journals_while_parent_holds_the_lock(tmp_path):
    """A worker subprocess forked while another thread is mid-emit must
    not inherit the held lock (its first event used to hang)."""
    path = str(tmp_path / "events.jsonl")
    journal = configure_journal(path)
    with journal._lock:
        pid = os.fork()
        if pid == 0:
            journal.emit("child.event")
            os._exit(0)
    deadline = time.monotonic() + 10.0
    while not os.waitpid(pid, os.WNOHANG)[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError("forked child hung on the journal lock")
        time.sleep(0.02)
    assert [e["kind"] for e in read_events(path)] == ["child.event"]


def test_golden_event_schema(monkeypatch):
    """The wire format is pinned: core keys, their order, and their
    types may only change with a SCHEMA_VERSION bump."""
    monkeypatch.setattr("repro.obs.events.time.time", lambda: 1700000000.25)
    monkeypatch.setattr("repro.obs.events.os.getpid", lambda: 4242)
    sink = io.StringIO()
    EventJournal(stream=sink).emit(
        "sim.finish", trace_id="0123456789abcdef0123456789abcdef",
        span_id="0123456789abcdef", benchmark="gzip", policy="dcg",
        tag="baseline", seconds=1.5, cycles=1000)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    assert sink.getvalue() == golden
