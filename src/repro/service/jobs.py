"""Thread-safe job queue for the simulation service.

A :class:`Job` wraps one :class:`~repro.sim.parallel.RunSpec` on its way
through the service: ``queued -> running -> done | failed``, with a
``running -> queued`` edge when a shutdown re-queues work in flight.

:class:`JobQueue` is the single synchronisation point between the HTTP
front end and the worker pool:

* **Deduplication** — two submissions whose specs share a cache
  fingerprint (the same content hash the disk cache uses) while the
  first is still in flight return the *same* job, so a popular request
  is simulated once no matter how many clients ask for it.
* **FIFO** — jobs pop in submission order; a job re-queued by a
  shutdown keeps its original place.
* **Bounded depth with backpressure** — ``submit`` raises
  :class:`QueueFull` once ``maxsize`` jobs are waiting.  The server
  turns that into a 429 response; nothing is ever dropped silently.
* **Bounded memory** — only the newest :data:`FINISHED_JOBS_KEPT`
  finished jobs stay queryable; older ones are forgotten, so a
  long-lived server's job table does not grow with its request count.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..faults import should_inject
from ..obs.events import get_journal
from ..obs.tracing import current_context, new_trace_id
from ..power.budget import PowerCalibration
from ..sim.cache import spec_fingerprint
from ..sim.configs import config_from_tag
from ..sim.parallel import RunSpec
from ..sim.simulator import BUILTIN_POLICIES, SimulationResult
from ..workloads.profiles import get_profile
from .persist import PendingJob, QueueJournal

__all__ = ["FINISHED_JOBS_KEPT", "Job", "JobQueue", "JobState",
           "QueueClosed", "QueueFull", "integer_field", "make_spec",
           "validate_spec"]

#: finished (done or failed) jobs a queue keeps for status queries; the
#: oldest beyond this are dropped, and a lookup of one answers "no such
#: job" as for an id never issued
FINISHED_JOBS_KEPT = 1024


class QueueFull(RuntimeError):
    """``submit`` would exceed the queue's bounded depth."""


class QueueClosed(RuntimeError):
    """``submit`` on a closed (draining/shutting-down) queue.

    Deliberately *not* a :class:`QueueFull` subclass: full means "retry
    in a moment" (HTTP 429) while closed means "this server will never
    take the job" (HTTP 503) — conflating them made clients retry
    forever against a dying server.
    """


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


# -- spec plumbing ----------------------------------------------------------

def make_spec(benchmark: str, policy: str = "dcg", tag: str = "baseline",
              instructions: Optional[int] = None,
              seed: Optional[int] = None,
              sample: Optional[str] = None) -> RunSpec:
    """Validated :class:`RunSpec` from loose request fields.

    Resolves the profile's canonical name and default seed exactly the
    way :class:`~repro.sim.runner.ExperimentRunner` does, so a job
    submitted over the wire lands on the same cache fingerprint as a
    local run.  ``sample`` is an optional "KxL" interval-sampling plan;
    an empty one is a full run.
    """
    for name, value in (("benchmark", benchmark), ("policy", policy),
                        ("tag", tag)):
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
    profile = get_profile(benchmark)        # raises KeyError with names
    if instructions is None:
        from ..sim.configs import default_instructions
        instructions = default_instructions()
    spec = RunSpec(tag=tag, benchmark=profile.name, policy=policy,
                   instructions=integer_field("instructions", instructions),
                   seed=(profile.seed if seed is None
                         else integer_field("seed", seed)),
                   sample=None if sample is None else str(sample) or None)
    validate_spec(spec)
    return spec


def integer_field(name: str, value: Any) -> int:
    """``value`` as an int; ``ValueError`` unless it is a whole number.

    JSON gives integral floats (``2000.0``) for some clients, so those
    pass; booleans, strings, ``null`` and fractions such as ``1.9`` do
    not, rather than being coerced or truncated by ``int()``.
    """
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_spec(spec: RunSpec) -> None:
    """Raise ``ValueError`` with a readable message on any bad field."""
    try:
        get_profile(spec.benchmark)
    except KeyError as exc:
        raise ValueError(str(exc).strip('"')) from None
    if spec.policy not in BUILTIN_POLICIES:
        valid = ", ".join(BUILTIN_POLICIES)
        raise ValueError(f"unknown policy {spec.policy!r}; "
                         f"choose one of: {valid}")
    config_from_tag(spec.tag)               # raises ValueError on bad tag
    if spec.instructions <= 0:
        raise ValueError("instructions must be positive")
    if getattr(spec, "sample", None):
        from ..sim.sampling import SampleSpec
        SampleSpec.parse(spec.sample).validate(spec.instructions)


# -- jobs -------------------------------------------------------------------

@dataclass
class Job:
    """One accepted simulation request and its lifecycle record."""

    id: str
    spec: RunSpec
    key: str                                 #: cache fingerprint (dedup key)
    state: JobState = JobState.QUEUED
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    error_traceback: Optional[str] = None    #: worker-side traceback text
    source: Optional[str] = None             #: "run" | "memory" | "disk"
    attempts: int = 0                        #: compute attempts (retries)
    requeues: int = 0                        #: shutdown re-queues
    resumed_from_checkpoint: bool = False    #: picked up mid-run state
    #: wall-clock stamps — display/UI only; durations never use these
    #: (NTP steps and DST make wall-clock differences lie)
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: monotonic stamps — the only clock durations are computed from
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    trace_id: Optional[str] = None           #: submitter's trace
    parent_span_id: Optional[str] = None     #: submitter's active span
    deadline_at: Optional[float] = None      #: monotonic; None = no deadline
    _seq: int = 0                            #: FIFO position
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is done or failed; False on timeout."""
        return self._done.wait(timeout)

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    @property
    def expired(self) -> bool:
        """True when every client's deadline has already passed."""
        return (self.deadline_at is not None
                and time.monotonic() > self.deadline_at)

    @property
    def seconds(self) -> Optional[float]:
        """Run duration from the monotonic clock.

        Never derived from the wall-clock ``*_at`` stamps: a clock step
        (NTP sync, manual adjustment) between start and finish would
        report negative or wildly wrong durations into the latency
        histogram and progress lines.
        """
        if self.started_monotonic is None or self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.started_monotonic

    def to_dict(self) -> Dict[str, Any]:
        """JSON-encodable status record (results travel separately)."""
        return {
            "id": self.id,
            "state": self.state.value,
            "benchmark": self.spec.benchmark,
            "policy": self.spec.policy,
            "tag": self.spec.tag,
            "instructions": self.spec.instructions,
            "seed": self.spec.seed,
            "sample": getattr(self.spec, "sample", None),
            "key": self.key,
            "source": self.source,
            "error": self.error,
            "traceback": self.error_traceback,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "seconds": self.seconds,
            "trace_id": self.trace_id,
            "expired": self.expired,
        }

    def event_fields(self) -> Dict[str, Any]:
        """Identity fields shared by every journal event about this job."""
        return {
            "job_id": self.id,
            "benchmark": self.spec.benchmark,
            "policy": self.spec.policy,
            "tag": self.spec.tag,
        }


class JobQueue:
    """Bounded, deduplicating FIFO job queue.

    Parameters
    ----------
    maxsize:
        Maximum number of *queued* (not yet running) jobs; ``submit``
        raises :class:`QueueFull` beyond it.
    calibration:
        Power calibration folded into each spec's dedup fingerprint.
    persist:
        Optional :class:`~repro.service.persist.QueueJournal`; every
        accepted submission and terminal transition is recorded so a
        killed server can :meth:`restore` its outstanding work.
    """

    def __init__(self, maxsize: int = 64,
                 calibration: Optional[PowerCalibration] = None,
                 persist: Optional[QueueJournal] = None) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.calibration = calibration or PowerCalibration()
        self.persist = persist
        self._cond = threading.Condition()
        self._heap: List[Tuple[int, Job]] = []
        self._jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()     # ids, oldest first
        self._inflight: Dict[str, Job] = {}      # fingerprint -> live job
        self._seq = itertools.count()
        self._closed = False
        # monotonic since the queue last hit its depth bound; None while
        # below it — /healthz turns a sustained value into "degraded"
        self._saturated_since: Optional[float] = None
        # lifecycle counters; only ever changed under ``_cond``
        self.submitted = 0       #: jobs accepted as new work
        self.deduped = 0         #: submissions answered by an in-flight job
        self.rejected = 0        #: submissions refused by backpressure
        self.done = 0            #: jobs completed successfully
        self.failed = 0          #: jobs that ended in failure
        self.requeued = 0        #: running jobs re-queued by a shutdown
        self.restored = 0        #: jobs re-queued from the persistence journal

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # -- saturation tracking ----------------------------------------------

    def _queued_count(self) -> int:
        """Jobs waiting to run; caller holds the lock."""
        return sum(1 for _s, job in self._heap
                   if job.state is JobState.QUEUED)

    def _note_depth(self, queued: int) -> None:
        """Track sustained saturation; caller holds the lock."""
        if queued >= self.maxsize:
            if self._saturated_since is None:
                self._saturated_since = time.monotonic()
        else:
            self._saturated_since = None

    @property
    def saturated_seconds(self) -> float:
        """How long the queue has been pinned at its depth bound."""
        with self._cond:
            if self._saturated_since is None:
                return 0.0
            return time.monotonic() - self._saturated_since

    # -- submission side --------------------------------------------------

    def submit(self, spec: RunSpec, key: Optional[str] = None,
               deadline_at: Optional[float] = None) -> Tuple[Job, bool]:
        """Accept ``spec``; returns ``(job, created)``.

        ``created`` is False when an identical spec was already queued
        or running — the caller shares that job.  Dedup wins over
        backpressure: a duplicate of an in-flight spec is accepted even
        when the queue is full, because it adds no work.  It also wins
        over closure, so a draining server keeps answering status polls
        for work it already owns.

        ``deadline_at`` is a ``time.monotonic()`` instant after which no
        client is waiting for the result; the worker pool skips expired
        jobs.  On dedup the live job keeps the *latest* interest: a
        ``None`` deadline (someone waits forever) wins outright.

        The submitter's active trace context (a CLI span, or the
        server's ``http.submit`` span) is recorded on the job so
        worker-side events join the same trace; without one, the job
        starts its own trace.
        """
        if key is None:
            key = spec_fingerprint(spec, self.calibration)
        journal = get_journal()
        with self._cond:
            live = self._inflight.get(key)
            if live is not None and not live.finished:
                if deadline_at is None:
                    live.deadline_at = None
                elif live.deadline_at is not None:
                    live.deadline_at = max(live.deadline_at, deadline_at)
                self.deduped += 1
                journal.emit("job.enqueue", trace_id=live.trace_id,
                             deduped=True, **live.event_fields())
                return live, False
            if self._closed:
                raise QueueClosed(
                    "queue is shut down; not accepting new work")
            queued = self._queued_count()
            if queued >= self.maxsize or should_inject("queue.full"):
                self.rejected += 1
                self._note_depth(queued)
                raise QueueFull(
                    f"queue depth limit reached ({self.maxsize} jobs "
                    "waiting); retry after some complete")
            context = current_context()
            job = Job(id=uuid.uuid4().hex[:12], spec=spec, key=key,
                      submitted_at=time.time(),
                      trace_id=(context.trace_id if context
                                else new_trace_id()),
                      parent_span_id=(context.span_id if context
                                      else None),
                      deadline_at=deadline_at,
                      _seq=next(self._seq))
            # journal the submit before ``take`` can see the job, so a
            # worker's ``done`` never lands ahead of it (a restart would
            # run the finished job again); appends take only the
            # journal's own lock, never ``_cond``
            if self.persist is not None:
                self.persist.record_submit(job)
            self._jobs[job.id] = job
            self._inflight[key] = job
            self._push(job)
            self.submitted += 1
            self._note_depth(queued + 1)
            self._cond.notify()
        journal.emit("job.enqueue", trace_id=job.trace_id,
                     deduped=False, instructions=spec.instructions,
                     **job.event_fields())
        return job, True

    def restore(self, pending: List[PendingJob]) -> int:
        """Re-queue jobs replayed from the persistence journal.

        Jobs keep their original id and trace, and return in submission
        order, so a client
        that survived the server polls the same URLs and wins.  Invalid
        specs (a profile renamed between lives, say) and duplicates of
        already-restored fingerprints are skipped with a journal event
        rather than poisoning the queue.  Counted separately from
        ``submitted`` — restored work was already counted by its first
        life.  Returns the number restored.

        A job whose persisted wall-clock deadline passed during the
        outage is **failed** at restore — not silently re-queued.  No
        client is waiting for it anymore; burning worker time on it
        would only delay live work, and leaving it queued made the
        restored depth lie about real backlog.  The failure goes
        through the normal terminal accounting (journal ``fail``
        record, ``failed`` counter) so a second restart does not
        resurrect it again.
        """
        journal = get_journal()
        count = 0
        now_wall = time.time()
        for record in pending:
            try:
                spec = record.to_spec()
                validate_spec(spec)
                key = spec_fingerprint(spec, self.calibration)
            except (KeyError, TypeError, ValueError) as exc:
                journal.emit("job.restore_skipped", job_id=record.id,
                             error=str(exc))
                continue
            deadline_wall = getattr(record, "deadline_wall", None)
            if deadline_wall is not None and now_wall > deadline_wall:
                job = Job(id=record.id, spec=spec, key=key,
                          submitted_at=now_wall,
                          trace_id=record.trace_id or new_trace_id(),
                          parent_span_id=record.parent_span_id,
                          _seq=next(self._seq))
                job.state = JobState.FAILED
                job.error = ("deadline expired while the server was "
                             "down; not re-queued")
                job.finished_at = now_wall
                with self._cond:
                    self._jobs[job.id] = job
                    self._retire(job)
                    self.failed += 1
                if self.persist is not None:
                    self.persist.record_fail(job.id)
                job._done.set()
                journal.emit("job.restore_expired", trace_id=job.trace_id,
                             deadline_wall=deadline_wall,
                             **job.event_fields())
                continue
            # surviving deadlines come back as fresh monotonic instants
            deadline_at = (time.monotonic() + (deadline_wall - now_wall)
                           if deadline_wall is not None else None)
            with self._cond:
                if self._closed:
                    break
                live = self._inflight.get(key)
                if live is not None and not live.finished:
                    journal.emit("job.restore_skipped", job_id=record.id,
                                 error=f"duplicate of in-flight {live.id}")
                    continue
                job = Job(id=record.id, spec=spec, key=key,
                          submitted_at=time.time(),
                          trace_id=record.trace_id or new_trace_id(),
                          parent_span_id=record.parent_span_id,
                          deadline_at=deadline_at,
                          _seq=next(self._seq))
                self._jobs[job.id] = job
                self._inflight[key] = job
                self._push(job)
                self.restored += 1
                self._cond.notify()
            count += 1
            journal.emit("job.restore", trace_id=job.trace_id,
                         **job.event_fields())
        return count

    def _push(self, job: Job) -> None:
        # ``_seq`` is the submission order and survives re-queueing, so
        # a re-queued job returns to its original position
        heapq.heappush(self._heap, (job._seq, job))

    # -- worker side ------------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the next queued job (marking it running), else None.

        Blocks up to ``timeout`` seconds (forever when None) for work;
        returns None on timeout or once the queue is closed and empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                while self._heap:
                    _s, job = heapq.heappop(self._heap)
                    if job.state is not JobState.QUEUED:
                        continue             # stale entry (re-queued twice)
                    job.state = JobState.RUNNING
                    job.started_at = time.time()
                    job.started_monotonic = time.monotonic()
                    self._note_depth(self._queued_count())
                    get_journal().emit("job.dequeue",
                                       trace_id=job.trace_id,
                                       **job.event_fields())
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not self._heap:
                            return None

    def complete(self, job: Job, result: SimulationResult,
                 source: str = "run") -> None:
        """Mark ``job`` done and wake everything waiting on it."""
        with self._cond:
            job.result = result
            job.source = source
            job.state = JobState.DONE
            job.finished_at = time.time()
            job.finished_monotonic = time.monotonic()
            self._inflight.pop(job.key, None)
            self._retire(job)
            self.done += 1
        # the terminal record lands before waiters wake: anything a
        # client observed finished is finished after a restart too
        if self.persist is not None:
            self.persist.record_done(job.id)
            self._maybe_compact()
        job._done.set()
        get_journal().emit("job.complete", trace_id=job.trace_id,
                           source=source, seconds=job.seconds,
                           **job.event_fields())

    def fail(self, job: Job, error: str,
             traceback: Optional[str] = None) -> None:
        """Mark ``job`` failed; the error travels to every waiter.

        ``traceback`` is the worker-side traceback text (when one was
        captured); it rides on the job record and the journal event so
        a ``repro submit --wait`` failure is diagnosable client-side.
        """
        with self._cond:
            job.error = error
            job.error_traceback = traceback
            job.state = JobState.FAILED
            job.finished_at = time.time()
            job.finished_monotonic = time.monotonic()
            self._inflight.pop(job.key, None)
            self._retire(job)
            self.failed += 1
        if self.persist is not None:
            self.persist.record_fail(job.id)
            self._maybe_compact()
        job._done.set()
        get_journal().emit("job.fail", trace_id=job.trace_id,
                           error=error, traceback=traceback,
                           seconds=job.seconds, **job.event_fields())

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished and forget the oldest finished jobs
        beyond :data:`FINISHED_JOBS_KEPT`; caller holds the lock.

        Only finished jobs are ever dropped: ids enter the deque only
        here, at a terminal transition, and no job leaves a terminal
        state, so a queued or running job stays whatever its age.
        """
        self._finished.append(job.id)
        while len(self._finished) > FINISHED_JOBS_KEPT:
            self._jobs.pop(self._finished.popleft(), None)

    def requeue(self, job: Job) -> None:
        """Put a running job back (shutdown path); keeps FIFO position.

        Re-queueing is exempt from the depth bound — the job was
        already accepted and must not be lost to backpressure.
        """
        with self._cond:
            job.state = JobState.QUEUED
            job.started_at = None
            job.started_monotonic = None
            job.requeues += 1
            self._push(job)
            self.requeued += 1
            self._cond.notify()
        get_journal().emit("job.requeue", trace_id=job.trace_id,
                           requeues=job.requeues, **job.event_fields())

    def _maybe_compact(self) -> None:
        """Rewrite the persistence journal once enough terminals pile up."""
        if self.persist is not None and self.persist.should_compact():
            self.persist.compact()

    # -- introspection ----------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    @property
    def depth(self) -> int:
        """Jobs waiting to run (the backpressure measure)."""
        with self._cond:
            return self._queued_count()

    @property
    def running(self) -> int:
        with self._cond:
            return sum(1 for job in self._jobs.values()
                       if job.state is JobState.RUNNING)

    def counters(self) -> Dict[str, int]:
        with self._cond:
            return {
                "submitted": self.submitted,
                "deduped": self.deduped,
                "rejected": self.rejected,
                "done": self.done,
                "failed": self.failed,
                "requeued": self.requeued,
                "restored": self.restored,
            }

    def close(self) -> None:
        """Refuse new work and wake blocked :meth:`take` calls."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
