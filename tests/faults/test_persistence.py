"""Crash-safe queue persistence: journal replay, compaction, restore."""

import json
import os
import sys
import threading

import pytest

from repro.service import ServiceServer, SimulationService
from repro.service import persist as persist_mod
from repro.service.jobs import JobQueue, JobState, make_spec
from repro.service.persist import PendingJob, QueueJournal
from repro.sim import ResultCache
from repro.sim.parallel import RunSpec

INSTRUCTIONS = 400


def _journal(tmp_path) -> QueueJournal:
    return QueueJournal(str(tmp_path / "state" / "queue.jsonl"))


def _queue(tmp_path, **kwargs) -> JobQueue:
    return JobQueue(maxsize=16, persist=_journal(tmp_path), **kwargs)


def _spec(benchmark="gzip", policy="dcg") -> RunSpec:
    return make_spec(benchmark, policy, instructions=INSTRUCTIONS)


# -- QueueJournal -----------------------------------------------------------

def test_journal_roundtrip(tmp_path):
    queue = _queue(tmp_path)
    first, _ = queue.submit(_spec("gzip"))
    second, _ = queue.submit(_spec("mcf"))
    third, _ = queue.submit(_spec("gcc"))
    job = queue.take(timeout=1)
    queue.complete(job, object(), "run")
    pending = _journal(tmp_path).load()
    assert [record.id for record in pending] == [second.id, third.id]
    assert pending[0].to_spec() == second.spec
    restored_first = _journal(tmp_path).load()[0]
    assert restored_first.spec_fields["benchmark"] == "mcf"
    assert restored_first.trace_id == second.trace_id


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path):
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    job, _ = queue.submit(_spec("gzip"))
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write("not json at all\n")
        handle.write('{"v": 99, "op": "submit", "id": "future"}\n')
        handle.write('{"v": 1, "op": "submit"')     # torn mid-append
    pending = journal.load()
    assert [record.id for record in pending] == [job.id]


def test_journal_load_missing_file_is_empty(tmp_path):
    assert _journal(tmp_path).load() == []


def test_compact_rewrites_to_outstanding_set(tmp_path):
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    keep, _ = queue.submit(_spec("gzip"))
    done, _ = queue.submit(_spec("mcf"))
    job = queue.take(timeout=1)         # FIFO: pops "keep" (gzip) first
    queue.complete(job, object(), "run")
    assert [pending.id for pending in journal.compact()] == [done.id]
    lines = [json.loads(line) for line in
             open(journal.path, encoding="utf-8")]
    assert len(lines) == 1
    assert lines[0]["op"] == "submit"
    assert lines[0]["id"] == done.id
    assert journal.load()[0].id == done.id


@pytest.mark.parametrize("racer", ["submit", "complete"])
def test_compaction_keeps_records_that_race_it(tmp_path, monkeypatch,
                                               racer):
    """A record appended while a compaction rewrites the journal must
    survive the rewrite: a submit that raced it stays outstanding, and
    a job finished during it stays finished."""
    monkeypatch.setattr(persist_mod, "COMPACT_EVERY", 1)
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    first, _ = queue.submit(_spec("gzip"))
    second, _ = queue.submit(_spec("mcf"))
    assert queue.take(timeout=1) is first
    assert queue.take(timeout=1) is second
    raced = []

    def race():
        if racer == "submit":
            raced.append(queue.submit(_spec("swim"))[0].id)
        else:
            queue.complete(second, object(), "run")

    real_replace = os.replace
    threads = []

    def replace(src, dst):
        # the first rewrite of the journal lets another thread act
        # between the compaction's read and its swap; that thread
        # finishes unless the compaction holds it off
        if dst == journal.path and not threads:
            threads.append(threading.Thread(target=race))
            threads[0].start()
            threads[0].join(0.5)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    queue.complete(first, object(), "run")      # compacts
    threads[0].join(10)
    assert not threads[0].is_alive()
    outstanding = [pending.id for pending in journal.load()]
    if racer == "submit":
        assert outstanding == [second.id] + raced
    else:
        assert outstanding == []


def test_submit_record_lands_before_a_worker_can_finish_the_job(
        tmp_path, monkeypatch):
    """A worker that takes and completes a job while its submit is
    still being journaled must not leave ``done`` ahead of ``submit``:
    the journal would then name the finished job as outstanding and a
    restart would run it again."""
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=16, persist=journal)
    real_record_submit = journal.record_submit
    threads = []

    def worker():
        job = queue.take(timeout=10)
        if job is not None:
            queue.complete(job, object(), "run")

    def record_submit(job):
        # give another thread the chance to take and finish the job
        # before the submit record is written; it gets it unless the
        # queue holds the job back until the record is in
        threads.append(threading.Thread(target=worker))
        threads[0].start()
        threads[0].join(0.5)
        real_record_submit(job)

    monkeypatch.setattr(journal, "record_submit", record_submit)
    job, created = queue.submit(_spec())
    assert created
    threads[0].join(10)
    assert not threads[0].is_alive()
    assert job.state is JobState.DONE
    assert journal.load() == []


def test_journal_tracks_the_queue_under_concurrent_compaction(
        tmp_path, monkeypatch):
    """Eight threads submit and finish jobs while every terminal
    compacts; the journal must end up naming exactly the unfinished
    jobs, which a lost or resurrected record would break."""
    monkeypatch.setattr(persist_mod, "COMPACT_EVERY", 1)
    journal = _journal(tmp_path)
    queue = JobQueue(maxsize=512, persist=journal)
    unfinished = set()

    def client(index):
        for n in range(24):
            job, _ = queue.submit(make_spec(
                "gzip", "dcg", instructions=INSTRUCTIONS,
                seed=index * 100 + n))
            if n % 2:
                queue.complete(job, object(), "run")
            else:
                unfinished.add(job.id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert {pending.id for pending in journal.load()} == unfinished
    assert journal.dropped == 0


def test_recording_never_raises_on_io_failure(tmp_path):
    journal = QueueJournal(str(tmp_path / "state" / "queue.jsonl"))
    os.rmdir(str(tmp_path / "state"))
    target = tmp_path / "state"
    target.write_text("a file where the directory should be")
    queue = JobQueue(maxsize=16, persist=journal)
    job, _ = queue.submit(_spec())      # append fails silently
    assert job.state is JobState.QUEUED
    assert journal.dropped >= 1


# -- JobQueue.restore -------------------------------------------------------

def test_restore_preserves_ids_trace_and_order(tmp_path):
    queue = _queue(tmp_path)
    first, _ = queue.submit(_spec("gzip"))
    second, _ = queue.submit(_spec("mcf"))
    pending = _journal(tmp_path).load()

    fresh = JobQueue(maxsize=16)
    assert fresh.restore(pending) == 2
    assert fresh.restored == 2
    assert fresh.submitted == 0         # restored != newly submitted
    restored = fresh.get(first.id)
    assert restored is not None
    assert restored.trace_id == first.trace_id
    # submission order survives into pop order
    assert fresh.take(timeout=1).id == first.id
    assert fresh.take(timeout=1).id == second.id


def test_restore_reads_records_that_carry_a_priority(tmp_path):
    """Journals written while the queue still had priorities carry a
    ``priority`` on each submit record; they restore as plain FIFO, in
    submission order, with their ids and traces intact."""
    journal = _journal(tmp_path)
    records = [
        {"v": 1, "op": "submit", "id": "0000000000a1", "priority": 0,
         "trace_id": "a" * 32, "parent_span_id": "b" * 16,
         "deadline_wall": None,
         "spec": {"tag": "baseline", "benchmark": "gzip", "policy": "dcg",
                  "instructions": INSTRUCTIONS, "seed": 1, "sample": None}},
        {"v": 1, "op": "submit", "id": "0000000000a2", "priority": 9,
         "trace_id": "c" * 32, "parent_span_id": None,
         "deadline_wall": None,
         "spec": {"tag": "baseline", "benchmark": "mcf", "policy": "dcg",
                  "instructions": INSTRUCTIONS, "seed": 2, "sample": None}},
    ]
    with open(journal.path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    fresh = JobQueue(maxsize=16)
    assert fresh.restore(journal.load()) == 2
    first, second = fresh.take(timeout=1), fresh.take(timeout=1)
    assert (first.id, first.trace_id) == ("0000000000a1", "a" * 32)
    assert first.parent_span_id == "b" * 16
    assert (second.id, second.trace_id) == ("0000000000a2", "c" * 32)


def test_restore_skips_invalid_and_duplicate_records(tmp_path):
    queue = _queue(tmp_path)
    good, _ = queue.submit(_spec("gzip"))
    pending = _journal(tmp_path).load()
    bogus = PendingJob(id="feedface0001", spec_fields={
        "tag": "baseline", "benchmark": "quake3", "policy": "dcg",
        "instructions": INSTRUCTIONS, "seed": 1})
    torn = PendingJob(id="feedface0002", spec_fields={"tag": "baseline"})

    fresh = JobQueue(maxsize=16)
    assert fresh.restore([bogus, pending[0], pending[0], torn]) == 1
    assert fresh.get(good.id) is not None
    assert fresh.get("feedface0001") is None
    assert fresh.restored == 1


# -- SimulationService restart ---------------------------------------------

def test_service_restart_restores_outstanding_jobs(tmp_path):
    """The crash scenario end to end: submit, die, reboot, recover.

    The first service accepts three jobs but its pool never starts (a
    stand-in for a server killed before finishing); one job is
    hand-completed so the journal sees a terminal.  A second service
    over the same state dir must restore exactly the other two, under
    their original ids.
    """
    state_dir = str(tmp_path / "state")
    cache_root = str(tmp_path / "cache")

    first = SimulationService(instructions=INSTRUCTIONS, workers=1,
                              cache=ResultCache(cache_root),
                              state_dir=state_dir)
    ids = {}
    for benchmark in ("gzip", "mcf", "gcc"):
        job, _ = first.submit({"benchmark": benchmark, "policy": "dcg"})
        ids[benchmark] = job.id
    finished = first.queue.take(timeout=1)
    first.queue.complete(finished, object(), "run")
    # no first.stop(): the process "dies" with two jobs outstanding

    second = SimulationService(instructions=INSTRUCTIONS, workers=2,
                               cache=ResultCache(cache_root),
                               state_dir=state_dir)
    server = ServiceServer(second, port=0)
    server.start_background()
    try:
        assert second.queue.restored == 2
        survivors = {b: i for b, i in ids.items()
                     if i != finished.id}
        for benchmark, job_id in survivors.items():
            job = second.queue.get(job_id)
            assert job is not None, f"{benchmark} lost across restart"
            assert job.wait(timeout=120)
            assert job.state is JobState.DONE
        assert second.queue.get(finished.id) is None
        # the journal is now fully terminal: a third boot restores 0
        third = SimulationService(instructions=INSTRUCTIONS, workers=1,
                                  cache=ResultCache(cache_root),
                                  state_dir=state_dir)
        assert third.queue.restored == 0
    finally:
        server.shutdown()
        server.server_close()
        second.stop()
