"""Crash-safe job persistence for the service queue.

A :class:`QueueJournal` is an append-only JSON-lines file recording
every accepted submission and every terminal transition (done/fail).
Replaying it at startup — submissions minus terminals, in submission
order — reconstructs exactly the jobs a killed server still owed its
clients, so a ``kill -9`` mid-grid loses nothing: the restarted server
re-queues the outstanding work under the *same job ids*, and the disk
cache makes any re-execution of already-simulated specs a cache hit.

Design notes:

* Appends use open-per-write in ``"a"`` mode (the same O_APPEND
  pattern as :mod:`repro.obs.events`), so the queue thread never holds
  a file handle across a crash; the journal's lock serialises them.
* Recording never raises — persistence is a recovery aid, not a
  correctness dependency of the live path; failures bump ``dropped``.
* Replay tolerates torn/corrupt trailing lines (a crash mid-append is
  the expected case) by skipping them.
* ``compact()`` atomically rewrites the journal to just its
  outstanding set, so the file tracks the backlog, not the server's
  lifetime throughput.  The queue triggers it after
  :data:`COMPACT_EVERY` terminal records; boot restores what it
  returns.  Appends wait for a running compaction, so none is lost.

Deadlines are persisted as **wall-clock** instants
(``deadline_wall``): the live queue works in ``time.monotonic()``
terms, but a monotonic value is meaningless in another process, so
the submit record carries the equivalent wall time.  At restore, a
job whose wall deadline already passed during the outage is failed
(no client is waiting for it); a surviving deadline is converted back
into a fresh monotonic instant.  The wall clock only ever gates
*whether* a restored job still matters — never a duration — so a
clock step during the outage can at worst run or drop a borderline
job, not corrupt accounting.

``checkpoint`` records are provenance, not state: they note that a
job's simulation snapshotted mid-run (the snapshot itself lives in
the :class:`~repro.sim.checkpoint.CheckpointStore`), so an operator
replaying the journal can see which restored jobs will resume rather
than restart.  Replay ignores them for queue reconstruction.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..sim.cache import write_atomic
from ..sim.parallel import RunSpec

__all__ = ["COMPACT_EVERY", "PERSIST_VERSION", "PendingJob", "QueueJournal",
           "QUEUE_JOURNAL_FILENAME", "STATE_DIR_ENV_VAR"]

#: environment variable naming the service state directory
STATE_DIR_ENV_VAR = "REPRO_STATE_DIR"

#: journal filename inside the state directory
QUEUE_JOURNAL_FILENAME = "queue.jsonl"

#: journal record schema version
PERSIST_VERSION = 1

#: terminal records between automatic compactions
COMPACT_EVERY = 512


@dataclass
class PendingJob:
    """One outstanding (accepted, not yet terminal) job from replay.

    ``deadline_wall`` is the job's client deadline as a wall-clock
    instant (None = somebody waits forever); the restore path fails
    jobs whose deadline expired during the outage.
    """

    id: str
    spec_fields: Dict[str, Any]
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    deadline_wall: Optional[float] = None

    def to_spec(self) -> RunSpec:
        return RunSpec(
            tag=self.spec_fields["tag"],
            benchmark=self.spec_fields["benchmark"],
            policy=self.spec_fields["policy"],
            instructions=int(self.spec_fields["instructions"]),
            seed=int(self.spec_fields["seed"]),
            sample=self.spec_fields.get("sample"))

    @classmethod
    def from_job(cls, job: Any) -> "PendingJob":
        spec = job.spec
        deadline_at = getattr(job, "deadline_at", None)
        # translate the queue's monotonic deadline into wall-clock terms
        # for the journal; monotonic values die with this process
        deadline_wall = (time.time() + (deadline_at - time.monotonic())
                         if deadline_at is not None else None)
        return cls(
            id=job.id,
            spec_fields={
                "tag": spec.tag, "benchmark": spec.benchmark,
                "policy": spec.policy, "instructions": spec.instructions,
                "seed": spec.seed,
                "sample": getattr(spec, "sample", None),
            },
            trace_id=job.trace_id,
            parent_span_id=job.parent_span_id,
            deadline_wall=deadline_wall)


def _submit_record(pending: PendingJob) -> Dict[str, Any]:
    """The journal's ``submit`` record for one outstanding job."""
    return {
        "op": "submit", "id": pending.id, "trace_id": pending.trace_id,
        "parent_span_id": pending.parent_span_id,
        "deadline_wall": pending.deadline_wall,
        "spec": pending.spec_fields,
    }


class QueueJournal:
    """Append-only submit/done/fail log with replay and compaction."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.dropped = 0
        self._since_compact = 0
        self._lock = threading.Lock()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    # -- appends ----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        """Append one record; ``_lock`` orders it against compaction,
        so no record lands in the file a compaction is replacing."""
        record["v"] = PERSIST_VERSION
        with self._lock:
            try:
                line = json.dumps(record, sort_keys=True,
                                  separators=(",", ":"))
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            except (OSError, ValueError, TypeError):
                self.dropped += 1
                return
            if record["op"] in ("done", "fail"):
                self._since_compact += 1

    def record_submit(self, job: Any) -> None:
        self._append(_submit_record(PendingJob.from_job(job)))

    def record_done(self, job_id: str) -> None:
        self._append({"op": "done", "id": job_id})

    def record_fail(self, job_id: str) -> None:
        self._append({"op": "fail", "id": job_id})

    def record_checkpoint(self, job_id: str, key: str,
                          progress: Optional[Dict[str, Any]] = None
                          ) -> None:
        """Provenance note: ``job_id``'s simulation snapshotted mid-run.

        ``key`` is the checkpoint's fingerprint (also the cache/dedup
        key) and ``progress`` whatever position metadata the store
        kept (committed count or window index).  Replay ignores these
        records; they exist so the journal tells the whole story of a
        job that died and resumed.
        """
        self._append({"op": "checkpoint", "id": job_id, "key": key,
                      "progress": dict(progress or {})})

    def should_compact(self) -> bool:
        with self._lock:
            return self._since_compact >= COMPACT_EVERY

    # -- replay -----------------------------------------------------------

    def load(self) -> List[PendingJob]:
        """Outstanding jobs in submission order; [] for a fresh journal.

        Skips corrupt lines (a torn trailing append after a crash is
        normal) and unknown versions/ops (forward compatibility).
        """
        if not os.path.exists(self.path):
            return []
        pending: Dict[str, PendingJob] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if (not isinstance(record, dict)
                            or record.get("v") != PERSIST_VERSION):
                        continue
                    op = record.get("op")
                    job_id = record.get("id")
                    if not isinstance(job_id, str):
                        continue
                    if op == "submit":
                        spec = record.get("spec")
                        if not isinstance(spec, dict):
                            continue
                        deadline_wall = record.get("deadline_wall")
                        if not isinstance(deadline_wall, (int, float)):
                            deadline_wall = None
                        # fields this version does not read (older
                        # records carry a queue-order one) are ignored
                        pending[job_id] = PendingJob(
                            id=job_id, spec_fields=spec,
                            trace_id=record.get("trace_id"),
                            parent_span_id=record.get("parent_span_id"),
                            deadline_wall=deadline_wall)
                    elif op in ("done", "fail"):
                        pending.pop(job_id, None)
                    # "checkpoint" records are provenance only: ignored
        except OSError:
            return []
        return list(pending.values())

    # -- compaction -------------------------------------------------------

    def compact(self) -> List[PendingJob]:
        """Atomically rewrite the journal to its outstanding submits and
        return them.  The set is replayed from the journal itself, and
        ``_lock`` holds every append until the new file is in place."""
        with self._lock:
            pending = self.load()
            lines = [json.dumps(dict(_submit_record(job), v=PERSIST_VERSION),
                                sort_keys=True, separators=(",", ":")) + "\n"
                     for job in pending]
            try:
                write_atomic(self.path, "".join(lines).encode("utf-8"))
            except OSError:
                self.dropped += 1
            else:
                self._since_compact = 0
        return pending
