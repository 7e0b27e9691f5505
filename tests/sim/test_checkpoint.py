"""Checkpoint store, pausable runs and the run driver: bit-identity,
corruption tolerance, interrupt/resume of both run kinds."""

import os
import pickle

import pytest

from repro.obs import configure_journal, read_events
from repro.sim import (CheckpointStore, PausableRun, SimulationInterrupted,
                       Simulator, checkpoint, run_spec)
from repro.sim.cache import result_to_dict, spec_fingerprint
from repro.sim.checkpoint import CHECKPOINT_DIR_ENV_VAR
from repro.sim.parallel import RunSpec

from ..conftest import StopAfter

INSTRUCTIONS = 2_000


@pytest.fixture(autouse=True)
def _no_inherited_checkpoint_env(monkeypatch):
    monkeypatch.delenv(CHECKPOINT_DIR_ENV_VAR, raising=False)


def _store(tmp_path) -> CheckpointStore:
    return CheckpointStore(str(tmp_path / "ckpt"))


def _spec(**kwargs) -> RunSpec:
    kwargs.setdefault("instructions", INSTRUCTIONS)
    return RunSpec("baseline", "gzip", "dcg", **kwargs)


# -- CheckpointStore --------------------------------------------------------

def test_store_roundtrip_and_peek(tmp_path):
    store = _store(tmp_path)
    key = "ab" + "0" * 62
    assert store.save(key, "run", {"drawn": 7}, meta={"committed": 7})
    assert store.load(key, kind="run") == {"drawn": 7}
    assert store.peek(key) == {"committed": 7, "kind": "run"}
    assert (store.saves, store.loads, store.misses) == (1, 1, 0)


def test_store_disabled_without_root():
    store = CheckpointStore()
    assert not store.enabled
    assert store.save("k", "run", {}) is False
    assert store.load("k") is None
    assert store.peek("k") is None
    store.discard("k")                  # no-op, must not raise


def test_kind_mismatch_is_a_miss(tmp_path):
    store = _store(tmp_path)
    key = "cd" + "0" * 62
    store.save(key, "sampled", {"next_window": 3})
    assert store.load(key, kind="run") is None
    assert store.misses == 1
    # the file survives a kind mismatch (it is valid, just not ours)
    assert store.load(key, kind="sampled") == {"next_window": 3}


def test_key_mismatch_deletes_and_misses(tmp_path):
    store = _store(tmp_path)
    key, alias = "ef" + "0" * 62, "ef" + "1" * 62
    store.save(key, "run", {"drawn": 1})
    os.replace(store.path(key), store.path(alias))
    assert store.load(alias, kind="run") is None
    assert not os.path.exists(store.path(alias))


@pytest.mark.parametrize("scribble", [
    b"",                                 # empty file
    b"not a checkpoint at all",          # bad magic
    b"REPROCKPT1\n" + b"torn pickle",    # magic, garbage envelope
])
def test_corrupt_files_are_deleted_misses(tmp_path, scribble):
    store = _store(tmp_path)
    key = "12" + "0" * 62
    store.save(key, "run", {"drawn": 9})
    with open(store.path(key), "wb") as handle:
        handle.write(scribble)
    assert store.load(key, kind="run") is None
    assert store.misses == 1
    assert not os.path.exists(store.path(key))


def test_truncated_payload_fails_digest(tmp_path):
    store = _store(tmp_path)
    key = "34" + "0" * 62
    store.save(key, "run", {"drawn": 99, "blob": list(range(100))})
    blob = open(store.path(key), "rb").read()
    with open(store.path(key), "wb") as handle:
        handle.write(blob[:-20])
    assert store.load(key, kind="run") is None
    assert not os.path.exists(store.path(key))


def test_stale_version_is_a_miss(tmp_path, monkeypatch):
    store = _store(tmp_path)
    key = "56" + "0" * 62
    monkeypatch.setattr("repro.sim.checkpoint.CHECKPOINT_VERSION", 0)
    store.save(key, "run", {"drawn": 5})
    monkeypatch.undo()
    assert store.load(key, kind="run") is None
    assert not os.path.exists(store.path(key))


def test_unpicklable_state_is_dropped_not_raised(tmp_path):
    store = _store(tmp_path)
    assert store.save("78" + "0" * 62, "run",
                      {"gen": (x for x in range(3))}) is False
    assert store.dropped == 1


# -- PausableRun ------------------------------------------------------------

def test_straight_drive_matches_simulator():
    run = PausableRun("gzip", "dcg", INSTRUCTIONS)
    run.advance()
    direct = Simulator().run_benchmark(
        "gzip", "dcg", INSTRUCTIONS)
    assert result_to_dict(run.result()) == result_to_dict(direct)


def test_snapshot_resume_is_bit_identical():
    """Pause mid-run, pickle the state (the store's round-trip), resume
    in a 'fresh process', and finish: byte-identical to never pausing."""
    reference = PausableRun("gzip", "dcg", INSTRUCTIONS)
    reference.advance()

    paused = PausableRun("gzip", "dcg", INSTRUCTIONS)
    paused.advance(701)
    frozen = pickle.dumps(paused.state())
    del paused
    resumed = PausableRun.resume(pickle.loads(frozen))
    # the core commits up to its full width per cycle, so a chunk
    # boundary may overshoot the target by a few instructions
    assert 701 <= resumed.committed < 701 + 8
    resumed.advance(1400)               # a second pause point
    resumed = PausableRun.resume(pickle.loads(pickle.dumps(
        resumed.state())))
    resumed.advance()
    assert result_to_dict(resumed.result()) == \
        result_to_dict(reference.result())


# -- the run driver ---------------------------------------------------------

#: per run kind: a spec, and the progress fields its checkpoint meta and
#: ``checkpoint.*`` events carry
KINDS = {
    "run": (_spec(), {"committed", "instructions"}),
    "sampled": (_spec(instructions=4_000, sample="4x500"),
                {"window", "windows"}),
}

#: fields every journal record carries, whatever its kind
RECORD_FIELDS = {"v", "ts", "kind", "pid"}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_run_spec_interrupt_then_resume(tmp_path, monkeypatch, kind):
    """Stop a run after two steps, resume it from the store, and finish:
    byte-identical to never stopping.  The envelope kind and the exact
    fields of ``checkpoint.save``/``checkpoint.resume`` are pinned."""
    monkeypatch.setattr(checkpoint, "DEFAULT_CHUNK", 600)
    spec, progress = KINDS[kind]
    store = _store(tmp_path)
    key = spec_fingerprint(spec)
    uninterrupted = run_spec(spec, store=CheckpointStore())

    configure_journal(path=str(tmp_path / "events.jsonl"))
    try:
        with pytest.raises(SimulationInterrupted):
            run_spec(spec, store=store, stop=StopAfter(2))
        meta = store.peek(key)
        assert meta.pop("kind") == kind
        assert set(meta) == progress
        resumed = run_spec(spec, store=store)
    finally:
        configure_journal()
    assert store.loads == 1
    assert result_to_dict(resumed) == result_to_dict(uninterrupted)
    # completion discards the checkpoint; a re-run starts cold
    assert store.peek(key) is None

    events = list(read_events(str(tmp_path / "events.jsonl")))
    assert [e["kind"] for e in events] == [
        "checkpoint.save", "checkpoint.save", "checkpoint.resume",
        "checkpoint.save"]
    for event in events:
        assert set(event) - RECORD_FIELDS == {
            "strategy", "key", "benchmark", "policy"} | progress
        assert (event["strategy"], event["key"]) == (kind, key)


def test_run_spec_without_store_matches_simulator(monkeypatch):
    monkeypatch.setattr(checkpoint, "DEFAULT_CHUNK", 500)
    # with no store a plain run is one step: the stop is polled once
    result = run_spec(_spec(), store=CheckpointStore(),
                      stop=StopAfter(1))
    direct = Simulator().run_benchmark("gzip", "dcg", INSTRUCTIONS)
    assert result_to_dict(result) == result_to_dict(direct)


@pytest.mark.parametrize("instructions", [0, -5])
def test_pausable_run_rejects_non_positive_budget(instructions):
    # 0 used to fall back silently to the default budget
    with pytest.raises(ValueError, match="instructions must be positive"):
        PausableRun("gzip", "dcg", instructions)
