"""Stdlib HTTP server for the simulation service.

:class:`SimulationService` bundles the queue, worker pool, and a
disk-backed :class:`~repro.sim.runner.ExperimentRunner`;
:class:`ServiceServer` exposes it as a small JSON API:

========================  ==================================================
``POST /v1/runs``         submit one spec or a ``{"runs": [...]}`` batch;
                          202 with job records, 429 when the queue is full,
                          400 on an invalid spec or a field outside
                          :data:`RUN_FIELDS`
``GET /v1/runs/<id>``     job status
``GET /v1/runs/<id>/result``  block (``?timeout=`` seconds, default 60,
                          negatives count as 0) for the result; 400 on a
                          non-numeric or non-finite ``timeout``
``POST /v1/drain``        stop accepting new work; in-flight and queued
                          jobs still complete and their results stay
                          fetchable (graceful drain before shutdown)
``GET /healthz``          liveness + queue/worker summary; 503 once the
                          service is degraded (dead workers, sustained
                          queue saturation)
``GET /metrics``          JSON: queue depth, done/failed counts, cache
                          hit ratio, p50/p95 job wall-clock
========================  ==================================================

Everything is standard library (``http.server``); the threading server
gives each request its own thread, so blocking result waits don't
starve status polls.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..obs.events import get_journal
from ..obs.tracing import span
from ..power.budget import PowerCalibration
from ..sim.cache import ResultCache, result_to_dict
from ..sim.checkpoint import CHECKPOINT_DIR_ENV_VAR
from ..sim.parallel import RunSpec
from ..sim.runner import ExperimentRunner
from .client import DEADLINE_HEADER
from .jobs import Job, JobQueue, QueueClosed, QueueFull, make_spec
from .persist import (QUEUE_JOURNAL_FILENAME, STATE_DIR_ENV_VAR,
                      QueueJournal)
from .workers import WorkerPool

__all__ = ["RUN_FIELDS", "ServiceServer", "SimulationService",
           "parse_wait_timeout", "serve"]

#: default TCP port for ``repro serve`` / ``repro submit``
DEFAULT_PORT = 8765

_RUN_PATH = re.compile(r"^/v1/runs/(?P<id>[0-9a-f]+)(?P<result>/result)?$")

#: the keys a ``POST /v1/runs`` run object may carry; any other is a 400
RUN_FIELDS = ("benchmark", "policy", "tag", "instructions", "seed", "sample")


def parse_wait_timeout(raw: str) -> float:
    """Seconds a result request may block, from its ``?timeout=`` value.

    Raises ``ValueError`` unless ``raw`` is a finite number.  A negative
    value means "don't wait" and becomes 0; a huge one is capped at
    ``threading.TIMEOUT_MAX``, past which ``Event.wait`` overflows.
    """
    try:
        seconds = float(raw)
    except ValueError:
        raise ValueError(f"timeout must be a number of seconds, "
                         f"got {raw!r}") from None
    if not math.isfinite(seconds):
        raise ValueError(f"timeout must be finite, got {raw!r}")
    return min(max(0.0, seconds), threading.TIMEOUT_MAX)


class SimulationService:
    """Queue + worker pool + cached runner, independent of HTTP.

    Parameters mirror the CLI: ``workers`` simulation threads, a
    ``queue_depth`` backpressure bound, an optional per-job ``timeout``
    (enables subprocess isolation + crash retry), and the usual
    instruction budget / calibration / disk-cache knobs.
    ``degraded_after`` is how many seconds the queue may sit pinned at
    its depth bound before ``/healthz`` reports degraded.
    """

    def __init__(self, instructions: Optional[int] = None,
                 calibration: Optional[PowerCalibration] = None,
                 cache: Optional[ResultCache] = None,
                 workers: int = 2, queue_depth: int = 64,
                 timeout: Optional[float] = None,
                 compute=None,
                 degraded_after: float = 30.0,
                 state_dir: Optional[str] = None,
                 checkpoint_dir: Optional[str] = None) -> None:
        self.runner = ExperimentRunner(instructions=instructions,
                                       calibration=calibration, cache=cache)
        if state_dir is None:
            state_dir = os.environ.get(STATE_DIR_ENV_VAR) or None
        self.state_dir = state_dir
        # checkpointing rides on the state directory by default: a
        # stateful server snapshots long runs, a stateless one doesn't.
        # Exported through the environment (not passed object-to-object)
        # so forked compute children and pool workers inherit the store.
        if checkpoint_dir is None:
            checkpoint_dir = os.environ.get(CHECKPOINT_DIR_ENV_VAR) or None
        if checkpoint_dir is None and state_dir:
            checkpoint_dir = os.path.join(state_dir, "checkpoints")
        self.checkpoint_dir = checkpoint_dir
        if checkpoint_dir:
            os.environ[CHECKPOINT_DIR_ENV_VAR] = checkpoint_dir
        persist = None
        pending = []
        if state_dir:
            persist = QueueJournal(
                os.path.join(state_dir, QUEUE_JOURNAL_FILENAME))
            # compact the journal down to what a previous life still
            # owed, and restore exactly that
            pending = persist.compact()
        self.queue = JobQueue(maxsize=queue_depth,
                              calibration=self.runner.calibration,
                              persist=persist)
        if pending:
            restored = self.queue.restore(pending)
            get_journal().emit("service.restore", restored=restored,
                               replayed=len(pending))
        self.pool = WorkerPool(self.queue, self.runner, workers=workers,
                               timeout=timeout, compute=compute)
        self.degraded_after = degraded_after
        # wall-clock is display-only; uptime (and any rate derived from
        # it) anchors on the monotonic clock so an NTP step can't skew it
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since construction (NTP-step immune)."""
        return time.monotonic() - self._started_monotonic

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.pool.start()

    def stop(self) -> None:
        """Stop workers; in-flight jobs are re-queued, none are lost."""
        self.pool.stop()
        self.queue.close()

    # -- request handling -------------------------------------------------

    def parse_run(self, fields: Any) -> RunSpec:
        """Validated spec from one loose request dict.

        Raises ``ValueError`` on a missing, unknown or wrongly typed
        field, so a batch can be checked whole before any of it queues.
        """
        if not isinstance(fields, dict):
            raise ValueError(f"each run must be a JSON object, got {fields!r}")
        unknown = [key for key in fields if key not in RUN_FIELDS]
        if unknown:
            raise ValueError(
                f"unknown field(s) {', '.join(map(repr, unknown))}; "
                f"a run takes {', '.join(RUN_FIELDS)}")
        instructions = fields.get("instructions")
        try:
            spec = make_spec(
                benchmark=fields["benchmark"],
                policy=fields.get("policy", "dcg"),
                tag=fields.get("tag", "baseline"),
                instructions=(self.runner.instructions if instructions is None
                              else instructions),
                seed=fields.get("seed"),
                sample=fields.get("sample"))
        except KeyError as exc:
            raise ValueError(f"missing or unknown field: {exc}") from None
        return spec

    def submit(self, fields: Dict[str, Any],
               deadline_at: Optional[float] = None) -> Tuple[Job, bool]:
        """Accept one loose request dict; (job, created).

        Raises ``ValueError`` on a bad spec,
        :class:`~repro.service.jobs.QueueFull` under backpressure, and
        :class:`~repro.service.jobs.QueueClosed` once draining.
        """
        return self.queue.submit(self.parse_run(fields),
                                 deadline_at=deadline_at)

    def drain(self) -> Dict[str, Any]:
        """Stop accepting new work; what's accepted still completes.

        The queue closes (new submissions get :class:`QueueClosed` →
        503), workers finish the backlog and then exit, and finished
        results remain fetchable until the process exits.
        """
        already = self.queue.closed
        self.queue.close()
        if not already:
            get_journal().emit("service.drain",
                               queued=self.queue.depth,
                               running=self.queue.running)
        return {
            "status": "draining",
            "queued": self.queue.depth,
            "running": self.queue.running,
            "done": self.queue.done,
            "failed": self.queue.failed,
        }

    def metrics(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "queue_depth": self.queue.depth,
            "queue_max_depth": self.queue.maxsize,
            "running": self.queue.running,
            "workers": self.pool.workers,
            "uptime_seconds": self.uptime_seconds,
            "started_at": self.started_at,
        }
        data.update(self.queue.counters())
        data.update(self.pool.metrics())
        return data

    def health(self) -> Dict[str, Any]:
        """Liveness summary; ``status`` is ``"ok"`` or ``"degraded"``.

        Degraded (the handler turns it into a 503) when every worker
        thread has died under a started pool, or when the queue has
        been pinned at its depth bound for more than
        ``degraded_after`` seconds — both mean accepted work is no
        longer draining.
        """
        reasons: List[str] = []
        draining = self.queue.closed
        # workers exit by design once a drained queue empties — that is
        # the drain completing, not a degradation
        if (self.pool.started and self.pool.alive_workers == 0
                and not draining):
            reasons.append("all worker threads are dead")
        saturated = self.queue.saturated_seconds
        if saturated > self.degraded_after:
            reasons.append(
                f"queue saturated for {saturated:.0f}s "
                f"(bound {self.degraded_after:g}s)")
        payload: Dict[str, Any] = {
            "status": "degraded" if reasons else "ok",
            "workers": self.pool.workers,
            "alive_workers": self.pool.alive_workers,
            "queue_depth": self.queue.depth,
            "draining": draining,
            "uptime_seconds": self.uptime_seconds,
            "started_at": self.started_at,
        }
        if reasons:
            payload["reasons"] = reasons
        return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes the five endpoints onto the owning service."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- endpoints --------------------------------------------------------

    def _deadline_at(self) -> Optional[float]:
        """Absolute monotonic deadline from the client's relative header.

        The header carries *remaining seconds* rather than a wall-clock
        instant, so client and server clocks never need to agree; an
        absent or malformed header means "wait forever".
        """
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            seconds = float(raw)
        except ValueError:
            return None
        return time.monotonic() + max(0.0, seconds)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/v1/drain":
            self._send(200, service.drain())
            return
        if path != "/v1/runs":
            self._send(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            data = self._read_json()
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        requests = data["runs"] if "runs" in data else [data]
        deadline_at = self._deadline_at()
        jobs: List[Tuple[Job, bool]] = []
        try:
            if not isinstance(requests, list):
                raise ValueError("runs must be a JSON list")
            # the batch's span roots a trace of its own; the accepted
            # jobs record it, so every worker-side event joins it
            with span("http.submit", runs=len(requests)):
                # validate the whole batch first: a 400 queues nothing
                specs = [service.parse_run(fields) for fields in requests]
                for spec in specs:
                    jobs.append(service.queue.submit(
                        spec, deadline_at=deadline_at))
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        except QueueClosed as exc:
            # "closed" tells the client this is fatal-for-this-server,
            # not a 429-style "try again in a moment"
            self._send(503, {
                "error": str(exc),
                "closed": True,
                "jobs": [dict(job.to_dict(), deduped=not created)
                         for job, created in jobs],
            })
            return
        except QueueFull as exc:
            # batch semantics: all-or-nothing is impossible once some
            # jobs are queued, so report what was accepted alongside
            # the rejection — the client retries the remainder
            self._send(429, {
                "error": str(exc),
                "queue_depth": service.queue.depth,
                "queue_max_depth": service.queue.maxsize,
                "jobs": [dict(job.to_dict(), deduped=not created)
                         for job, created in jobs],
            })
            return
        self._send(202, {
            "jobs": [dict(job.to_dict(), deduped=not created)
                     for job, created in jobs],
        })

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        service = self.server.service
        if parsed.path == "/healthz":
            health = service.health()
            self._send(200 if health["status"] == "ok" else 503, health)
            return
        if parsed.path == "/metrics":
            self._send(200, service.metrics())
            return
        match = _RUN_PATH.match(parsed.path)
        if match is None:
            self._send(404, {"error": f"no such endpoint: {parsed.path}"})
            return
        job = service.queue.get(match.group("id"))
        if job is None:
            self._send(404, {"error": f"no such job: {match.group('id')}"})
            return
        if not match.group("result"):
            self._send(200, job.to_dict())
            return
        try:
            timeout = parse_wait_timeout(
                parse_qs(parsed.query).get("timeout", ["60"])[0])
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        if not job.wait(timeout=timeout):
            self._send(504, {"error": "timed out waiting for the result",
                             "job": job.to_dict()})
            return
        if job.error is not None:
            self._send(500, {"error": job.error, "job": job.to_dict()})
            return
        self._send(200, {"job": job.to_dict(),
                         "result": result_to_dict(job.result)})


class ServiceServer(ThreadingHTTPServer):
    """Threading HTTP server bound to a :class:`SimulationService`.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.port``.  :meth:`ServiceServer.shutdown` stops the HTTP
    loop only — call :meth:`SimulationService.stop` for the workers.
    """

    daemon_threads = True

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 verbose: bool = False) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.port}"

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and embedded use)."""
        self.service.start()
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name="repro-service-http")
        thread.start()
        return thread


def serve(service: SimulationService, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT, verbose: bool = False,
          ready: Optional[threading.Event] = None) -> int:
    """Run the service until interrupted; returns accepted-job count.

    Ctrl-C / SIGTERM stop the HTTP loop, then shut the pool down
    gracefully: running jobs are re-queued, so every accepted job ends
    the session either done or still queued — never lost.  Handlers
    are registered explicitly because a backgrounded server (CI, shell
    scripts) often inherits SIGINT as ignored.
    """
    import signal

    server = ServiceServer(service, host=host, port=port, verbose=verbose)
    service.start()

    def _interrupt(_signum, _frame) -> None:
        raise KeyboardInterrupt

    previous = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((signum, signal.signal(signum, _interrupt)))
        except (ValueError, OSError):        # not the main thread
            pass
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)
        server.server_close()
        service.stop()
    return service.queue.submitted
