"""Worker pool draining the job queue into the simulation stack.

Each worker thread resolves jobs through the same path the batch
runner uses — in-memory memo, then the on-disk
:class:`~repro.sim.cache.ResultCache`, then an actual simulation — so a
repeat request over HTTP is as cheap as a repeat request in-process.

Simulations run inline by default; give the pool a ``timeout`` and each
one runs in a forked child process instead, which buys two guarantees
the paper-grid runner never needed: a wall-clock limit per job, and one
automatic retry when the child dies without producing a result.  A
stopping pool re-queues whatever it was computing, so an accepted job
survives Ctrl-C as either a result or a queued entry — never a loss.

Observability: each job runs inside a ``job.run`` span on the
*submitter's* trace (the job record carries the trace/span IDs across
the queue), and the child process inherits that context over the
fork.  The pool's counters are plain integers under one lock, and job
latencies go to a bounded-reservoir
:class:`~repro.obs.metrics.Histogram`, so a long-lived server's
``/metrics`` stays O(1) in memory.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Callable, Dict, List, Optional

from ..faults import should_inject
from ..obs.events import get_journal
from ..obs.metrics import Histogram
from ..obs.tracing import (SpanContext, activate, current_context,
                           new_span_id, new_trace_id, span)
from ..sim.cache import result_from_dict, result_to_dict
from ..sim.checkpoint import CheckpointStore, SimulationInterrupted
from ..sim.parallel import RunSpec, simulate_spec
from ..sim.runner import ExperimentRunner
from ..sim.simulator import SimulationResult
from .jobs import Job, JobQueue

__all__ = ["JobTimeout", "ShutdownRequested", "WorkerCrash", "WorkerPool"]


class WorkerCrash(RuntimeError):
    """The compute step died without producing a result (retried once).

    When the child process surfaced a real exception before dying, the
    formatted traceback rides along as ``crash.child_traceback`` so the
    eventual job failure is diagnosable, not just "exited with code 1".
    """

    child_traceback: Optional[str] = None


class JobTimeout(RuntimeError):
    """The compute step exceeded the pool's per-job timeout (no retry)."""


class ShutdownRequested(RuntimeError):
    """Raised inside a compute step interrupted by pool shutdown; the
    worker re-queues the job instead of failing it."""


def _exit_message(child) -> str:
    """Describe how a child ended, *after* reaping it.

    ``Process.exitcode`` is None until the child has been joined, so
    reading it straight off the EOF/dead-child detection raced the OS
    and produced "exited with code None".  A short join first makes the
    code real (or reports an honest unknown).
    """
    child.join(timeout=1.0)
    if child.exitcode is None:
        return "worker exited with an unknown status"
    return f"worker exited with code {child.exitcode}"


# -- subprocess compute (timeout + crash isolation) -------------------------

def _child_entry(conn, spec: RunSpec, calibration,
                 context: Optional[SpanContext] = None) -> None:
    """Child-side entry: one sim, one ``{"ok"|"error": ...}`` message.

    Exceptions are caught and shipped back with their traceback instead
    of killing the child silently — the difference between a job that
    fails with ``ValueError: bad seed`` plus a stack and one that fails
    with ``exited with code 1``.
    """
    try:
        with activate(context):
            result = simulate_spec(spec, calibration)
        payload = {"ok": result_to_dict(result)}
    except BaseException as exc:     # noqa: BLE001 - process boundary
        payload = {"error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
    conn.send(payload)
    conn.close()


def compute_in_subprocess(spec: RunSpec, calibration,
                          timeout: float,
                          stop: Optional[threading.Event] = None,
                          context: Optional[SpanContext] = None
                          ) -> SimulationResult:
    """Run one spec in a forked child with a wall-clock limit.

    Raises :class:`JobTimeout` past ``timeout`` seconds,
    :class:`WorkerCrash` if the child exits without a result *or*
    reports an exception (the worker-side message and traceback are
    attached), and :class:`ShutdownRequested` when ``stop`` is set
    mid-run (the child is terminated; the caller re-queues the job).
    ``context`` is the trace context the child's journal events should
    join.
    """
    import multiprocessing
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(
        target=_child_entry, args=(sender, spec, calibration, context),
        daemon=True)
    child.start()
    sender.close()
    deadline = time.monotonic() + timeout
    try:
        while True:
            if receiver.poll(0.05):
                try:
                    data = receiver.recv()
                except EOFError:
                    raise WorkerCrash(
                        f"{_exit_message(child)} "
                        "before returning a result")
                child.join()
                if "error" in data:
                    crash = WorkerCrash(data["error"])
                    crash.child_traceback = data.get("traceback")
                    raise crash
                return result_from_dict(data["ok"])
            if stop is not None and stop.is_set():
                child.terminate()
                raise ShutdownRequested("pool stopping")
            if not child.is_alive() and not receiver.poll(0):
                raise WorkerCrash(
                    f"{_exit_message(child)} "
                    "before returning a result")
            if time.monotonic() > deadline:
                child.terminate()
                raise JobTimeout(
                    f"{spec.benchmark}/{spec.policy} exceeded the "
                    f"{timeout:g}s per-job timeout")
    finally:
        if child.is_alive():
            child.terminate()
        child.join(timeout=1.0)
        receiver.close()


class WorkerPool:
    """Threads that pop jobs and resolve them to results.

    Parameters
    ----------
    queue:
        The shared :class:`~repro.service.jobs.JobQueue`.
    runner:
        An :class:`~repro.sim.runner.ExperimentRunner`; its in-memory
        memo and disk cache front every simulation.  Access is
        serialised by a pool-internal lock (the runner itself is not
        thread-safe); actual simulation happens outside the lock.  A
        job's ``key`` files its result, so the queue must fingerprint
        under the runner's calibration (the service gives both one).
    workers:
        Thread count (concurrent simulations).
    timeout:
        Per-job wall-clock limit in seconds.  When set, simulations run
        in forked child processes so they can be killed; when None they
        run inline (no limit, no crash isolation).
    compute:
        Override for the compute step, ``f(spec) -> SimulationResult``
        (tests inject crashes/blocks here).  May raise
        :class:`WorkerCrash` (retried once), :class:`JobTimeout`
        (failed), or :class:`ShutdownRequested` (re-queued).
    """

    def __init__(self, queue: JobQueue, runner: ExperimentRunner,
                 workers: int = 2, timeout: Optional[float] = None,
                 compute: Optional[Callable[[RunSpec], SimulationResult]]
                 = None) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.queue = queue
        self.runner = runner
        self.workers = workers
        self.timeout = timeout
        self._compute = compute or self._default_compute
        self._runner_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        # env-rooted (REPRO_CHECKPOINT_DIR); disabled when unset, in
        # which case every peek below is a cheap None
        self.checkpoints = CheckpointStore()
        # counters, bumped by every worker thread under ``_count_lock``
        self._count_lock = threading.Lock()
        self.simulated = 0       #: simulations actually executed
        self.retries = 0         #: compute retries after a crash
        self.timeouts = 0        #: jobs killed by the per-job timeout
        self.crashes = 0         #: crashes observed (each retried once)
        self.expired = 0         #: jobs skipped: every deadline passed
        self.resumed = 0         #: jobs resumed from a mid-run checkpoint
        self._hits = {"memory": 0, "disk": 0}
        # per-run throughput aggregates (actual simulations only, cache
        # hits excluded) — the service's /metrics perf trajectory
        self.sim_seconds_total = 0.0
        self.sim_instructions_total = 0
        self.sim_cycles_total = 0
        # a bounded reservoir keeps p50/p95 at O(1) memory over the
        # server's whole lifetime
        self._job_seconds = Histogram("repro_job_seconds")

    def _count(self, name: str) -> None:
        """Add one to counter attribute ``name``, thread-safely."""
        with self._count_lock:
            setattr(self, name, getattr(self, name) + 1)

    @property
    def hits(self) -> Dict[str, int]:
        """Cache-hit counts by layer (a snapshot view, not live state)."""
        with self._count_lock:
            return dict(self._hits)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(target=self._run, daemon=True,
                                      name=f"repro-worker-{index}")
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: interrupt in-flight computes (re-queueing
        their jobs), then join the worker threads.  Queued jobs stay
        queued; done jobs stay done; nothing is lost."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (and :meth:`stop` has not)."""
        return bool(self._threads)

    @property
    def alive_workers(self) -> int:
        """Worker threads that are actually still running."""
        return sum(1 for thread in self._threads if thread.is_alive())

    # -- the worker loop --------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            job = self.queue.take(timeout=0.1)
            if job is None:
                if self.queue.closed:
                    break            # drained: closed queue, no work left
                continue
            if self._stop.is_set():
                self.queue.requeue(job)
                break
            self._process(job)

    def _job_context(self, job: Job) -> SpanContext:
        """The submitter-side context this job's work should nest under."""
        return SpanContext(job.trace_id or new_trace_id(),
                           job.parent_span_id or new_span_id())

    def _process(self, job: Job) -> None:
        with activate(self._job_context(job)):
            with span("job.run", job_id=job.id,
                      benchmark=job.spec.benchmark, policy=job.spec.policy):
                self._resolve(job)

    def _resolve(self, job: Job) -> None:
        spec = job.spec
        with self._runner_lock:
            cached = self.runner.cached(spec, job.key)
        if cached is not None:
            result, source = cached
            with self._count_lock:
                self._hits[source] += 1
            self.queue.complete(job, result, source)
            return
        if job.expired:
            # nobody is waiting any more, and the answer isn't cached —
            # burning a worker on it would only starve live requests
            overdue = time.monotonic() - job.deadline_at
            self._count("expired")
            get_journal().emit("job.expired", trace_id=job.trace_id,
                               overdue_seconds=overdue,
                               **job.event_fields())
            self.queue.fail(job, "client deadline expired "
                            f"{overdue:.1f}s before the job ran; "
                            "nobody is waiting for this result")
            return
        if self.checkpoints.enabled:
            # a snapshot from a previous life (crash, drain, kill -9)
            # means the compute below resumes mid-run; record the
            # provenance before it happens so the journal tells the
            # story even if this attempt dies too
            snapshot = self.checkpoints.peek(job.key)
            if snapshot is not None:
                job.resumed_from_checkpoint = True
                self._count("resumed")
                get_journal().emit("job.resume_from_checkpoint",
                                   trace_id=job.trace_id,
                                   progress=snapshot,
                                   **job.event_fields())
                if self.queue.persist is not None:
                    self.queue.persist.record_checkpoint(job.id, job.key,
                                                         snapshot)
        start = time.perf_counter()
        try:
            result = self._attempt(job)
        except SimulationInterrupted:
            # drain hit mid-simulation: the sim layer already saved a
            # snapshot at the last chunk/window boundary, so re-queue —
            # the job's next life resumes instead of restarting
            if self.queue.persist is not None and self.checkpoints.enabled:
                self.queue.persist.record_checkpoint(
                    job.id, job.key, self.checkpoints.peek(job.key))
            self.queue.requeue(job)
            return
        except ShutdownRequested:
            self.queue.requeue(job)
            return
        except JobTimeout as exc:
            self._count("timeouts")
            get_journal().emit("job.timeout", trace_id=job.trace_id,
                               error=str(exc), **job.event_fields())
            self.queue.fail(job, str(exc))
            return
        except Exception as exc:             # noqa: BLE001 - job boundary
            tb = getattr(exc, "child_traceback", None)
            self.queue.fail(job, f"{type(exc).__name__}: {exc}",
                            traceback=tb or traceback.format_exc())
            return
        with self._runner_lock:
            self.runner.memoise_spec(spec, result, job.key)
        elapsed = time.perf_counter() - start
        self._job_seconds.observe(elapsed)
        with self._count_lock:
            self.simulated += 1
            self.sim_seconds_total += elapsed
            self.sim_instructions_total += result.instructions
            self.sim_cycles_total += result.cycles
        self.queue.complete(job, result, "run")

    def _note_crash(self, job: Job, crash: WorkerCrash) -> None:
        """Count and journal one observed crash (first *and* retry).

        The retry's crash used to escape to the generic failure handler
        uncounted, so the ``crashes`` counter read 1 for a job that
        crashed twice and the final crash left no ``worker.crash``
        event — the journal showed a retry into thin air.
        """
        self._count("crashes")
        get_journal().emit("worker.crash", trace_id=job.trace_id,
                           attempt=job.attempts, error=str(crash),
                           traceback=crash.child_traceback,
                           **job.event_fields())

    def _attempt(self, job: Job) -> SimulationResult:
        job.attempts += 1
        try:
            # injected crashes fire on first attempts only: the retry is
            # the recovery path under test, and must stay able to recover
            if job.attempts == 1 and should_inject("worker.crash"):
                raise WorkerCrash("injected fault: worker.crash")
            return self._compute(job.spec)
        except WorkerCrash as crash:
            if self._stop.is_set():
                raise ShutdownRequested("pool stopping") from crash
            self._note_crash(job, crash)
            self._count("retries")
            job.attempts += 1
            get_journal().emit("job.retry", trace_id=job.trace_id,
                               attempt=job.attempts, **job.event_fields())
            try:
                return self._compute(job.spec)   # one retry, then fail
            except WorkerCrash as second:
                if self._stop.is_set():
                    raise ShutdownRequested("pool stopping") from second
                self._note_crash(job, second)
                raise

    def _default_compute(self, spec: RunSpec) -> SimulationResult:
        if self.timeout is None:
            # the stop event lets sampled/checkpointed runs snapshot
            # and bail at the next window/chunk boundary on drain
            return simulate_spec(spec, self.runner.calibration,
                                 stop=self._stop)
        return compute_in_subprocess(spec, self.runner.calibration,
                                     self.timeout, self._stop,
                                     context=current_context())

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Hit/latency numbers for the JSON ``/metrics`` view."""
        hits = self.hits
        hit_count = hits["memory"] + hits["disk"]
        simulated = self.simulated
        served = hit_count + simulated
        sim_seconds = self.sim_seconds_total
        return {
            "simulated": simulated,
            "cache_hits_memory": hits["memory"],
            "cache_hits_disk": hits["disk"],
            "cache_hit_ratio": (hit_count / served) if served else 0.0,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "expired": self.expired,
            "resumed": self.resumed,
            "p50_seconds": self._job_seconds.percentile(0.50),
            "p95_seconds": self._job_seconds.percentile(0.95),
            "sim_seconds_total": sim_seconds,
            "sim_instructions_total": self.sim_instructions_total,
            "sim_cycles_total": self.sim_cycles_total,
            "sim_instructions_per_second": (
                self.sim_instructions_total / sim_seconds
                if sim_seconds else 0.0),
            "sim_cycles_per_second": (
                self.sim_cycles_total / sim_seconds
                if sim_seconds else 0.0),
        }
