"""Job queue: dedup, FIFO ordering, backpressure, lifecycle."""

import threading

import pytest

from repro.service import jobs as jobs_module
from repro.service.jobs import (JobQueue, JobState, QueueClosed,
                                QueueFull, make_spec, validate_spec)
from repro.sim import ResultCache
from repro.sim.cache import spec_fingerprint
from repro.sim.parallel import RunSpec


def _spec(benchmark="gzip", policy="dcg", instructions=500, **kwargs):
    return make_spec(benchmark, policy, instructions=instructions, **kwargs)


def _fake_result():
    from repro.sim.simulator import SimulationResult
    return SimulationResult(benchmark="gzip", policy="dcg",
                            instructions=500, cycles=100, ipc=5.0,
                            base_power=60.0, average_power=50.0,
                            total_saving=0.2)


# -- spec construction ------------------------------------------------------

def test_make_spec_resolves_profile_seed():
    spec = _spec()
    assert spec.benchmark == "gzip"
    assert spec.seed is not None           # profile default, pinned

def test_make_spec_empty_sample_is_a_full_run():
    assert _spec(sample="") == _spec()


def test_make_spec_rejects_unknown_benchmark():
    with pytest.raises(KeyError, match="quake3"):
        make_spec("quake3")


def test_validate_spec_messages():
    with pytest.raises(ValueError, match="policy"):
        validate_spec(RunSpec("baseline", "gzip", "warp-drive", 500, 1))
    with pytest.raises(ValueError, match="tag"):
        validate_spec(RunSpec("hyper", "gzip", "dcg", 500, 1))
    with pytest.raises(ValueError, match="positive"):
        validate_spec(RunSpec("baseline", "gzip", "dcg", 0, 1))


def test_fingerprint_matches_runner_fingerprint(tmp_path):
    """The dedup key must alias the disk cache's content hash: the
    runner files a result under the spec's fingerprint."""
    from repro.sim.runner import ExperimentRunner
    runner = ExperimentRunner(instructions=500,
                              cache=ResultCache(str(tmp_path)))
    result = runner.run("gzip", "dcg")
    spec = make_spec("gzip", "dcg", instructions=500)
    assert runner.cache.get(spec_fingerprint(spec, runner.calibration)) \
        .cycles == result.cycles


# -- dedup ------------------------------------------------------------------

def test_submit_dedups_identical_inflight_specs():
    queue = JobQueue(maxsize=4)
    job1, created1 = queue.submit(_spec())
    job2, created2 = queue.submit(_spec())
    assert created1 and not created2
    assert job1 is job2
    assert queue.counters()["deduped"] == 1
    assert queue.depth == 1


def test_different_specs_do_not_dedup():
    queue = JobQueue(maxsize=4)
    job1, _ = queue.submit(_spec(policy="dcg"))
    job2, _ = queue.submit(_spec(policy="base"))
    job3, _ = queue.submit(_spec(policy="dcg", instructions=501))
    assert len({job1.id, job2.id, job3.id}) == 3


def test_dedup_stops_once_job_finishes():
    queue = JobQueue(maxsize=4)
    job1, _ = queue.submit(_spec())
    taken = queue.take(timeout=1)
    queue.complete(taken, _fake_result())
    job2, created = queue.submit(_spec())
    assert created and job2 is not job1


# -- ordering ---------------------------------------------------------------

def test_jobs_pop_in_submission_order():
    queue = JobQueue(maxsize=8)
    first, _ = queue.submit(_spec(policy="base"))
    second, _ = queue.submit(_spec(policy="dcg"))
    assert queue.take(timeout=1) is first
    assert queue.take(timeout=1) is second


def test_requeue_keeps_original_position():
    queue = JobQueue(maxsize=8)
    first, _ = queue.submit(_spec(policy="base"))
    second, _ = queue.submit(_spec(policy="dcg"))
    taken = queue.take(timeout=1)
    assert taken is first
    queue.requeue(taken)
    assert taken.state is JobState.QUEUED
    assert queue.take(timeout=1) is first    # back ahead of `second`
    assert queue.counters()["requeued"] == 1


# -- backpressure -----------------------------------------------------------

def test_bounded_depth_rejects_with_queue_full():
    queue = JobQueue(maxsize=2)
    queue.submit(_spec(policy="base"))
    queue.submit(_spec(policy="dcg"))
    with pytest.raises(QueueFull, match="depth limit"):
        queue.submit(_spec(policy="plb-orig"))
    assert queue.counters()["rejected"] == 1


def test_capacity_frees_when_job_starts_running():
    queue = JobQueue(maxsize=1)
    queue.submit(_spec(policy="base"))
    queue.take(timeout=1)                    # queued -> running
    job, created = queue.submit(_spec(policy="dcg"))
    assert created and job.state is JobState.QUEUED


def test_duplicate_accepted_even_when_full():
    """Dedup wins over backpressure: a duplicate adds no work."""
    queue = JobQueue(maxsize=1)
    original, _ = queue.submit(_spec())
    dup, created = queue.submit(_spec())
    assert dup is original and not created


def test_requeue_is_exempt_from_depth_bound():
    queue = JobQueue(maxsize=1)
    job, _ = queue.submit(_spec())
    taken = queue.take(timeout=1)
    queue.submit(_spec(policy="base"))       # fills the only slot
    queue.requeue(taken)                     # must not raise
    assert queue.depth == 2


# -- lifecycle --------------------------------------------------------------

def test_complete_and_fail_wake_waiters():
    queue = JobQueue(maxsize=4)
    done_job, _ = queue.submit(_spec(policy="dcg"))
    bad_job, _ = queue.submit(_spec(policy="base"))
    seen = {}

    def wait_on(job, label):
        seen[label] = job.wait(timeout=5)

    threads = [threading.Thread(target=wait_on, args=(done_job, "done")),
               threading.Thread(target=wait_on, args=(bad_job, "bad"))]
    for thread in threads:
        thread.start()
    queue.complete(queue.take(timeout=1), _fake_result())
    queue.fail(queue.take(timeout=1), "boom")
    for thread in threads:
        thread.join(timeout=5)
    assert seen == {"done": True, "bad": True}
    assert done_job.state is JobState.DONE
    assert done_job.result is not None and done_job.finished
    assert bad_job.state is JobState.FAILED and bad_job.error == "boom"
    assert queue.counters()["done"] == 1
    assert queue.counters()["failed"] == 1


def test_take_times_out_empty():
    queue = JobQueue(maxsize=2)
    assert queue.take(timeout=0.05) is None


def test_close_wakes_blocked_take():
    queue = JobQueue(maxsize=2)
    results = []

    def taker():
        results.append(queue.take(timeout=10))

    thread = threading.Thread(target=taker)
    thread.start()
    queue.close()
    thread.join(timeout=5)
    assert results == [None]
    # closed is a distinct, fatal condition — not QueueFull's
    # "retry later" (a QueueFull here made clients retry forever
    # against a dying server)
    with pytest.raises(QueueClosed, match="shut down"):
        queue.submit(_spec())
    assert not isinstance(QueueClosed("x"), QueueFull)
    assert queue.rejected == 0      # closed submissions aren't "rejected"


def test_get_and_to_dict():
    queue = JobQueue(maxsize=2)
    job, _ = queue.submit(_spec())
    assert queue.get(job.id) is job
    assert queue.get("nope") is None
    data = job.to_dict()
    assert data["state"] == "queued"
    assert data["benchmark"] == "gzip"
    assert data["key"] == job.key


# -- finished-job bound -----------------------------------------------------

def _finish(queue, job, outcome):
    """Take ``job``, the oldest waiting, and finish it; returns it."""
    assert queue.take(timeout=1) is job
    if outcome == "done":
        queue.complete(job, _fake_result())
    else:
        queue.fail(job, "boom")
    return job


def test_only_newest_finished_jobs_are_kept(monkeypatch):
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 2)
    queue = JobQueue(maxsize=4)
    finished = [_finish(queue, queue.submit(_spec())[0], outcome)
                for outcome in ("done", "fail", "done", "fail")]
    assert [queue.get(job.id) for job in finished] == \
        [None, None, finished[2], finished[3]]
    assert queue.done == 2 and queue.failed == 2   # counters unaffected


def test_live_jobs_are_never_evicted(monkeypatch):
    monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 1)
    queue = JobQueue(maxsize=4)
    running, _ = queue.submit(_spec(benchmark="mcf"))
    assert queue.take(timeout=1) is running
    waiting = [queue.submit(_spec(instructions=600 + i))[0]
               for i in range(3)]
    queued, _ = queue.submit(_spec(benchmark="applu"))
    finished = [_finish(queue, job, "done") for job in waiting]
    assert queue.get(running.id) is running
    assert queue.get(queued.id) is queued
    assert queue.get(finished[-1].id) is finished[-1]
    assert queue.get(finished[0].id) is None
    # the old live jobs still finish normally, then age out in turn
    queue.complete(running, _fake_result())
    assert queue.get(running.id) is running
    assert queue.get(finished[-1].id) is None

