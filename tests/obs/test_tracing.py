"""Span tracing: nesting, thread-local isolation, context hand-off."""

import io
import json
import threading

import pytest

from repro.obs import (SpanContext, activate, configure_journal,
                       current_context, span)


def _events(sink: io.StringIO):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def test_no_context_outside_spans():
    assert current_context() is None


def test_span_nesting_shares_trace_and_links_parents():
    sink = io.StringIO()
    configure_journal(stream=sink)
    with span("outer") as outer:
        with span("inner") as inner:
            assert current_context() == inner
        assert current_context() == outer
    assert current_context() is None
    assert inner.trace_id == outer.trace_id
    assert inner.span_id != outer.span_id
    by_name = {e["name"]: e for e in _events(sink) if e["kind"] == "span"}
    assert by_name["inner"]["parent_span_id"] == outer.span_id
    assert "parent_span_id" not in by_name["outer"]     # root span
    assert by_name["outer"]["status"] == "ok"
    assert by_name["outer"]["seconds"] >= 0.0


def test_span_error_status():
    sink = io.StringIO()
    configure_journal(stream=sink)
    with pytest.raises(ValueError):
        with span("doomed"):
            raise ValueError("boom")
    (event,) = _events(sink)
    assert event["status"] == "error"


def test_activate_installs_remote_context():
    remote = SpanContext("f" * 32, "a" * 16)
    with activate(remote):
        assert current_context() == remote
        with span("child") as child:
            assert child.trace_id == remote.trace_id
    assert current_context() is None


def test_activate_none_is_noop():
    with activate(None):
        assert current_context() is None


def test_context_is_thread_local():
    seen = {}

    def worker():
        seen["context"] = current_context()

    with span("main-thread"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["context"] is None
