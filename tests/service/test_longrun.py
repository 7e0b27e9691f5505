"""Long-run service behaviour: monotonic job clocks, wall-clock
deadline persistence, and checkpointed resume across drains/restarts."""

import os
import time

import pytest

from repro.service.jobs import JobQueue, JobState, make_spec
from repro.service.persist import QueueJournal
from repro.service.server import SimulationService
from repro.sim import CheckpointStore, SimulationInterrupted, run_spec
from repro.sim.cache import result_to_dict, spec_fingerprint
from repro.sim.checkpoint import CHECKPOINT_DIR_ENV_VAR

from ..conftest import StopAfter

INSTRUCTIONS = 4_000
SAMPLE = "4x500"


def _journal(tmp_path) -> QueueJournal:
    return QueueJournal(str(tmp_path / "state" / "queue.jsonl"))


# -- monotonic job clocks ---------------------------------------------------

def test_job_seconds_survives_wall_clock_step(monkeypatch):
    """An NTP step (or DST jump) must not produce negative or absurd
    durations: ``Job.seconds`` derives only from the monotonic clock."""
    queue = JobQueue(maxsize=4)
    queue.submit(make_spec("gzip", "dcg", instructions=400))
    job = queue.take(timeout=1)
    assert job.started_monotonic is not None
    real_time = time.time
    # wall clock leaps a day backwards between take and complete
    monkeypatch.setattr(time, "time", lambda: real_time() - 86_400.0)
    queue.complete(job, object(), "run")
    assert job.seconds is not None
    assert 0.0 <= job.seconds < 5.0


def test_job_seconds_none_until_finished():
    queue = JobQueue(maxsize=4)
    job, _ = queue.submit(make_spec("gzip", "dcg", instructions=400))
    assert job.seconds is None
    taken = queue.take(timeout=1)
    assert taken.seconds is None
    queue.complete(taken, object(), "run")
    assert taken.seconds >= 0.0


def test_requeue_clears_started_stamp():
    """A re-queued job's next life must not inherit the old start
    stamp, or its duration would include time spent back in the queue."""
    queue = JobQueue(maxsize=4)
    queue.submit(make_spec("gzip", "dcg", instructions=400))
    job = queue.take(timeout=1)
    queue.requeue(job)
    assert job.started_monotonic is None
    again = queue.take(timeout=1)
    assert again.id == job.id
    assert again.started_monotonic is not None


# -- wall-clock deadline persistence ----------------------------------------

def test_deadline_persists_as_wall_clock_and_restores(tmp_path):
    queue = JobQueue(maxsize=4, persist=_journal(tmp_path))
    job, _ = queue.submit(make_spec("gzip", "dcg", instructions=400),
                          deadline_at=time.monotonic() + 60.0)
    (record,) = _journal(tmp_path).load()
    assert record.deadline_wall == pytest.approx(time.time() + 60.0,
                                                 abs=5.0)
    fresh = JobQueue(maxsize=4)
    assert fresh.restore([record]) == 1
    restored = fresh.get(job.id)
    assert restored.deadline_at == pytest.approx(time.monotonic() + 60.0,
                                                 abs=5.0)
    assert not restored.expired


def test_restore_fails_deadline_expired_during_outage(tmp_path):
    """A job whose deadline passed while the server was down must come
    back FAILED — not silently re-queued as phantom backlog."""
    queue = JobQueue(maxsize=4, persist=_journal(tmp_path))
    expired, _ = queue.submit(make_spec("gzip", "dcg", instructions=400),
                              deadline_at=time.monotonic() - 10.0)
    alive, _ = queue.submit(make_spec("mcf", "dcg", instructions=400))
    pending = _journal(tmp_path).load()
    assert len(pending) == 2

    fresh = JobQueue(maxsize=4, persist=_journal(tmp_path))
    assert fresh.restore(pending) == 1      # only the survivor re-queues
    assert fresh.restored == 1
    assert fresh.failed == 1
    dead = fresh.get(expired.id)
    assert dead.state is JobState.FAILED
    assert "deadline expired" in dead.error
    assert dead.wait(timeout=1)             # waiters unblock immediately
    assert fresh.take(timeout=1).id == alive.id
    # the failure is durable: a second restart does not resurrect it
    assert [r.id for r in _journal(tmp_path).load()] == [alive.id]


# -- checkpointed resume through the service --------------------------------

def test_worker_resumes_sampled_job_from_checkpoint(tmp_path, monkeypatch):
    """A checkpoint left by a previous life (crash, drain, kill -9) is
    picked up by the worker: the job reports the resume, the resumed
    counter ticks, and the result is byte-identical to uninterrupted."""
    monkeypatch.setenv(CHECKPOINT_DIR_ENV_VAR, str(tmp_path / "ckpt"))
    spec = make_spec("gzip", "dcg", instructions=INSTRUCTIONS,
                     sample=SAMPLE)
    reference = run_spec(spec, store=CheckpointStore(""))

    # a previous life dies after 2 of 4 windows, leaving its snapshot
    with pytest.raises(SimulationInterrupted):
        run_spec(spec, stop=StopAfter(2))
    store = CheckpointStore()
    key = spec_fingerprint(spec)
    assert store.peek(key)["window"] == 2

    service = SimulationService(instructions=INSTRUCTIONS, workers=1)
    service.start()
    try:
        job, created = service.submit({"benchmark": "gzip",
                                       "policy": "dcg", "sample": SAMPLE})
        assert created
        assert job.wait(timeout=120)
        assert job.state is JobState.DONE
        assert job.resumed_from_checkpoint
        assert job.to_dict()["resumed_from_checkpoint"] is True
        assert service.pool.resumed == 1
        assert result_to_dict(job.result) == result_to_dict(reference)
        assert store.peek(key) is None      # discarded on completion
    finally:
        service.stop()


def test_drain_checkpoints_requeues_and_resumes_across_restart(tmp_path):
    """The e2e outage story: drain a worker mid-sampled-run, restart
    over the same state dir, and finish from the checkpoint without
    re-simulating completed windows."""
    state_dir = str(tmp_path / "state")
    sample, instructions = "10x500", 50_000

    first = SimulationService(instructions=instructions, workers=1,
                              state_dir=state_dir)
    assert first.checkpoint_dir == os.path.join(state_dir, "checkpoints")
    assert os.environ[CHECKPOINT_DIR_ENV_VAR] == first.checkpoint_dir
    store = CheckpointStore(first.checkpoint_dir)
    first.start()
    job, _ = first.submit({"benchmark": "gzip", "policy": "dcg",
                           "sample": sample})
    key = spec_fingerprint(job.spec, first.runner.calibration)
    deadline = time.monotonic() + 60.0
    while store.peek(key) is None and time.monotonic() < deadline:
        time.sleep(0.005)
    progress = store.peek(key)
    assert progress is not None, "no checkpoint appeared within 60s"
    first.pool.stop()                       # drain mid-run
    assert job.state is JobState.QUEUED     # re-queued, not failed
    assert not job.finished
    # the journal recorded the checkpoint provenance for this job
    ops = [line for line in
           open(os.path.join(state_dir, "queue.jsonl"), encoding="utf-8")
           if '"checkpoint"' in line and job.id in line]
    assert ops, "no checkpoint provenance in the queue journal"

    second = SimulationService(instructions=instructions, workers=1,
                               state_dir=state_dir)
    assert second.queue.restored == 1
    second.start()
    try:
        restored = second.queue.get(job.id)
        assert restored is not None
        assert restored.wait(timeout=240)
        assert restored.state is JobState.DONE
        assert restored.resumed_from_checkpoint
        assert second.pool.resumed == 1
        result = restored.result
        assert result.sample == sample
        assert result.instructions == instructions
        assert store.peek(key) is None      # consumed and discarded
    finally:
        second.stop()
    os.environ.pop(CHECKPOINT_DIR_ENV_VAR, None)
