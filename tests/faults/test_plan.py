"""Fault-plan parsing, validation, and deterministic decisions."""

import pytest

from repro.faults import (FAULTS_ENV_VAR, FaultPlan, FaultRule,
                          configure_faults, corrupt_file, fault_active,
                          get_plan, parse_spec, should_inject)


# -- parsing ----------------------------------------------------------------

def test_parse_the_issue_example_spec():
    plan = parse_spec(
        "worker.crash:p=0.2,seed=7;cache.corrupt:nth=3;http.drop:nth=2")
    assert plan.enabled
    assert plan.active("worker.crash")
    assert plan.active("cache.corrupt")
    assert plan.active("http.drop")
    assert not plan.active("queue.full")
    assert plan.describe() == ("cache.corrupt:nth=3;http.drop:nth=2;"
                               "worker.crash:p=0.2,seed=7")


def test_parse_empty_spec_is_disabled():
    for text in ("", "   ", ";;", " ; "):
        plan = parse_spec(text)
        assert not plan.enabled
        assert plan.describe() == "off"


@pytest.mark.parametrize("spec, message", [
    ("bogus.site:p=0.5", "unknown fault site"),
    ("worker.crash", "needs parameters"),
    ("worker.crash:", "needs parameters"),
    ("worker.crash:p=0.5,nth=3", "exactly one of"),
    ("worker.crash:seed=7", "seed is only meaningful with p="),
    ("worker.crash:nth=2,seed=7", "seed is only meaningful with p="),
    ("worker.crash:p=0.0", "p must be in"),
    ("worker.crash:p=1.5", "p must be in"),
    ("worker.crash:nth=0", "nth must be >= 1"),
    ("worker.crash:p=0.5,times=0", "times must be >= 1"),
    ("worker.crash:p=banana", "non-numeric"),
    ("worker.crash:wat=1", "unknown parameter"),
    ("worker.crash:p=0.5,p=0.6", "duplicate parameter"),
    ("worker.crash:p=0.5;worker.crash:nth=2", "duplicate rule"),
    ("worker.crash:p", "malformed parameter"),
])
def test_parse_rejects_bad_specs(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_spec(spec)


# -- decisions --------------------------------------------------------------

def test_nth_mode_fires_every_nth_arrival():
    plan = parse_spec("http.drop:nth=3")
    decisions = [plan.decide("http.drop") for _ in range(9)]
    assert decisions == [False, False, True] * 3
    assert plan.counts() == {"http.drop": {"arrivals": 9, "injected": 3}}


def test_p_mode_is_deterministic_per_seed():
    first = parse_spec("worker.crash:p=0.4,seed=7")
    second = parse_spec("worker.crash:p=0.4,seed=7")
    other = parse_spec("worker.crash:p=0.4,seed=8")
    sequence = [first.decide("worker.crash") for _ in range(64)]
    assert sequence == [second.decide("worker.crash") for _ in range(64)]
    assert sequence != [other.decide("worker.crash") for _ in range(64)]
    assert any(sequence) and not all(sequence)


def test_times_caps_total_injections():
    plan = parse_spec("queue.full:nth=1,times=2")
    assert [plan.decide("queue.full") for _ in range(5)] == \
        [True, True, False, False, False]
    assert plan.counts()["queue.full"] == {"arrivals": 5, "injected": 2}


def test_unconfigured_site_is_a_cheap_no():
    plan = parse_spec("http.drop:nth=2")
    assert not plan.decide("worker.crash")
    assert "worker.crash" not in plan.counts()


def test_disabled_plan_never_fires():
    plan = FaultPlan()
    assert not plan.enabled
    assert not plan.decide("worker.crash")
    assert plan.counts() == {}


def test_rule_validation_direct():
    with pytest.raises(ValueError, match="exactly one of"):
        FaultRule("worker.crash").validate()
    FaultRule("worker.crash", nth=2).validate()


# -- process-wide resolution ------------------------------------------------

def test_get_plan_resolves_env_once(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV_VAR, "http.drop:nth=2")
    configure_faults(None)
    plan = get_plan()
    assert plan.active("http.drop")
    monkeypatch.setenv(FAULTS_ENV_VAR, "worker.crash:nth=1")
    assert get_plan() is plan                # resolved once, stays put
    configure_faults(None)
    assert get_plan().active("worker.crash")


def test_should_inject_and_fault_active_helpers(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    configure_faults(None)
    assert not fault_active("http.drop")
    assert not should_inject("http.drop")
    configure_faults("http.drop:nth=1")
    assert fault_active("http.drop")
    assert not fault_active("worker.crash")
    assert should_inject("http.drop")


def test_configure_empty_string_disables_outright(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV_VAR, "http.drop:nth=1")
    configure_faults("")
    # explicit empty spec wins over the environment
    assert not get_plan().enabled


# -- observability ----------------------------------------------------------

def test_injections_emit_events_and_count(tmp_path):
    from repro.obs.events import configure_journal, read_events
    journal_path = str(tmp_path / "events.jsonl")
    configure_journal(path=journal_path)
    plan = configure_faults("queue.full:nth=2")
    for _ in range(4):
        should_inject("queue.full")
    assert plan.counts() == {"queue.full": {"arrivals": 4, "injected": 2}}
    events = [event for event in read_events(journal_path)
              if event["kind"] == "fault.inject"]
    assert [event["arrival"] for event in events] == [2, 4]
    assert all(event["site"] == "queue.full" for event in events)


def test_corrupt_file_scribbles_invalid_json(tmp_path):
    target = tmp_path / "entry.json"
    target.write_text('{"ok": 1}')
    assert corrupt_file(str(target))
    import json
    with pytest.raises(ValueError):
        json.loads(target.read_bytes().decode("utf-8", errors="replace"))
    assert not corrupt_file(str(tmp_path / "missing" / "nope.json"))
