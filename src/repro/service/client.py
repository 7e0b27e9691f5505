"""``urllib`` client for the simulation service.

:class:`ServiceClient` speaks the JSON API in
:mod:`repro.service.server` with retry/backoff on connection errors and
typed exceptions for the interesting failure modes: `BackpressureError`
for a 429 (the queue is full — back off and resubmit), `JobFailed` for
a job whose simulation failed server-side, and `ServiceTimeout` when a
result does not arrive in time.

The client doubles as the :class:`~repro.sim.runner.ExperimentRunner`
remote executor: ``run_specs`` submits a batch (riding out
backpressure) and collects results in submission order, which is all
``ExperimentRunner(remote=client)`` needs to route ``figure``/
``report`` grids to a shared server.
"""

from __future__ import annotations

import json
import os
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults import should_inject
from ..obs.tracing import span
from ..sim.cache import result_from_dict
from ..sim.parallel import RunSpec
from ..sim.simulator import SimulationResult

__all__ = ["BackpressureError", "DEADLINE_HEADER", "JobFailed",
           "ServiceClient", "ServiceClosed", "ServiceError",
           "ServiceTimeout", "default_server_url", "SERVER_ENV_VAR"]

#: environment variable naming the default service URL
SERVER_ENV_VAR = "REPRO_SERVICE_URL"

#: request header carrying the client's remaining patience in seconds;
#: the server turns it into an absolute monotonic deadline and the
#: worker pool skips jobs whose every deadline has passed
DEADLINE_HEADER = "X-Repro-Deadline"


def default_server_url(default: str = "http://127.0.0.1:8765") -> str:
    """Service URL from ``$REPRO_SERVICE_URL``, else ``default``."""
    return os.environ.get(SERVER_ENV_VAR) or default


class ServiceError(RuntimeError):
    """Any service-level failure; carries the HTTP status and payload."""

    def __init__(self, message: str, status: int = 0,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        # job ids a batch helper managed to place before this error;
        # populated by ``run_specs`` so callers can recover the partial
        # batch instead of losing track of accepted work
        self.accepted_job_ids: List[str] = []


class BackpressureError(ServiceError):
    """The server's queue is full (HTTP 429); retry after a delay."""


class ServiceClosed(ServiceError):
    """The server is draining/shutting down (HTTP 503 with ``closed``);
    it will never take this job — retrying is pointless, find another
    server or give up."""


class JobFailed(ServiceError):
    """The job ran and failed server-side; retrying won't help."""


class ServiceTimeout(ServiceError):
    """No result within the allotted time (job may still complete)."""


class ServiceClient:
    """Small blocking client over ``urllib``.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8765`` (default:
        ``$REPRO_SERVICE_URL``).
    retries / backoff:
        Connection-error retries per request and the base sleep between
        them (exponential with equal jitter, so a fleet of clients
        recovering from the same blip doesn't stampede the server in
        lockstep).  HTTP-level errors are never retried here — they are
        semantic answers, not flakiness.
    timeout:
        Socket timeout per request, seconds.
    seed:
        Seed for the jitter RNG (tests pin it; production leaves the
        default entropy).
    """

    def __init__(self, base_url: Optional[str] = None, retries: int = 3,
                 backoff: float = 0.2, timeout: float = 30.0,
                 seed: Optional[int] = None) -> None:
        self.base_url = (base_url or default_server_url()).rstrip("/")
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        self._rng = random.Random(seed)

    # -- transport --------------------------------------------------------

    def _jittered(self, delay: float) -> float:
        """Equal-jitter backoff: half fixed, half uniform random."""
        return 0.5 * delay + 0.5 * delay * self._rng.random()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None,
                 headers: Optional[Dict[str, str]] = None
                 ) -> Dict[str, Any]:
        data = (json.dumps(body).encode("utf-8")
                if body is not None else None)
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method,
            headers={"Content-Type": "application/json", **(headers or {})})
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                # fault injection: lose the request before the wire, so
                # the retry/backoff path below does the recovering
                if should_inject("http.drop"):
                    raise ConnectionResetError("injected fault: http.drop")
                with urllib.request.urlopen(
                        request, timeout=timeout or self.timeout) as reply:
                    return json.loads(reply.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                payload = self._error_payload(exc)
                message = payload.get("error", str(exc))
                if exc.code == 429:
                    raise BackpressureError(message, exc.code, payload)
                if exc.code == 503 and payload.get("closed"):
                    raise ServiceClosed(message, exc.code, payload)
                if exc.code == 504:
                    raise ServiceTimeout(message, exc.code, payload)
                if exc.code == 500 and "job" in payload:
                    raise JobFailed(message, exc.code, payload)
                raise ServiceError(message, exc.code, payload)
            except (urllib.error.URLError, ConnectionError, TimeoutError,
                    OSError) as exc:
                if attempt >= self.retries:
                    raise ServiceError(
                        f"cannot reach {self.base_url}: {exc}") from exc
                time.sleep(self._jittered(delay))
                delay = min(delay * 2, 10.0)
        raise AssertionError("unreachable")

    @staticmethod
    def _error_payload(exc: urllib.error.HTTPError) -> Dict[str, Any]:
        try:
            return json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            return {}

    # -- endpoints --------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(self, runs: Sequence[Dict[str, Any]],
               deadline_seconds: Optional[float] = None
               ) -> List[Dict[str, Any]]:
        """Submit a batch of loose request dicts; job records back.

        ``deadline_seconds`` rides as the :data:`DEADLINE_HEADER` —
        "I'll wait this long"; the worker pool skips jobs once nobody's
        deadline is live any more.

        Raises :class:`BackpressureError` when the queue fills mid-
        batch (its ``payload["jobs"]`` lists what was accepted first)
        and :class:`ServiceClosed` when the server is draining.
        """
        headers = None
        if deadline_seconds is not None:
            headers = {DEADLINE_HEADER:
                       f"{max(0.0, deadline_seconds):.3f}"}
        return self._request("POST", "/v1/runs",
                             {"runs": list(runs)}, headers=headers)["jobs"]

    def submit_one(self, deadline_seconds: Optional[float] = None,
                   **fields: Any) -> Dict[str, Any]:
        """Submit a single run, e.g. ``submit_one(benchmark="gzip")``."""
        return self.submit([fields],
                           deadline_seconds=deadline_seconds)[0]

    def drain(self) -> Dict[str, Any]:
        """Ask the server to stop accepting work and finish what it owns."""
        return self._request("POST", "/v1/drain")

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/runs/{job_id}")

    def result_payload(self, job_id: str,
                       timeout: float = 60.0) -> Dict[str, Any]:
        """One blocking result poll; the raw ``{"job", "result"}`` payload.

        A single server-side wait window — raises
        :class:`ServiceTimeout` when it expires.  :meth:`result` wraps
        this in a re-polling loop.
        """
        return self._request(
            "GET", f"/v1/runs/{job_id}/result?timeout={timeout:.3f}",
            timeout=timeout + self.timeout)

    def result(self, job_id: str,
               timeout: float = 300.0) -> SimulationResult:
        """Block until ``job_id`` finishes; its decoded result.

        Re-polls across server-side wait windows until ``timeout``
        seconds have passed, then raises :class:`ServiceTimeout`.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceTimeout(
                    f"job {job_id} produced no result in {timeout:.0f}s")
            window = min(30.0, remaining)
            try:
                reply = self.result_payload(job_id, timeout=window)
            except ServiceTimeout:
                continue                     # server-side wait expired
            return result_from_dict(reply["result"])

    # -- ExperimentRunner remote executor ---------------------------------

    def run_specs(self, specs: Sequence[RunSpec],
                  timeout: float = 600.0) -> List[SimulationResult]:
        """Results for a batch of specs, in submission order.

        Rides out 429 backpressure by resubmitting the rejected tail
        with jittered exponential backoff until ``timeout`` expires;
        the server dedups any overlap, so resubmission is idempotent.
        When the deadline passes mid-batch (or the server starts
        draining), the raised error carries ``accepted_job_ids`` — the
        jobs already placed — so the caller can recover the partial
        batch instead of losing track of accepted work.

        A 404 while collecting (the server restarted and no longer
        knows a finished job's id) resubmits that spec: the disk cache
        answers it without re-simulation.
        """
        deadline = time.monotonic() + timeout
        fields = [{
            "benchmark": spec.benchmark, "policy": spec.policy,
            "tag": spec.tag, "instructions": spec.instructions,
            "seed": spec.seed,
            **({"sample": spec.sample}
               if getattr(spec, "sample", None) else {}),
        } for spec in specs]
        with span("client.run_specs", specs=len(fields),
                  server=self.base_url):
            pairs = self._submit_riding_backpressure(fields, deadline)
            return [self._collect_result(job_id, field, deadline)
                    for job_id, field in pairs]

    def _submit_riding_backpressure(
            self, fields: List[Dict[str, Any]], deadline: float
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """Place every field dict, riding 429s; ``(job_id, field)`` pairs.

        On giving up (deadline passed, or the server is draining) the
        exception gains the ids accepted so far as
        ``exc.accepted_job_ids`` and ``exc.payload["accepted_job_ids"]``.
        """
        pairs: List[Tuple[str, Dict[str, Any]]] = []
        remaining = list(fields)
        delay = max(self.backoff, 0.05)
        while remaining:
            budget = deadline - time.monotonic()
            try:
                jobs = self.submit(remaining,
                                   deadline_seconds=max(0.0, budget))
            except (BackpressureError, ServiceClosed) as exc:
                accepted = exc.payload.get("jobs", [])
                pairs.extend(zip((job["id"] for job in accepted),
                                 remaining))
                remaining = remaining[len(accepted):]
                if not remaining:
                    break                # the rejection took the last spec
                if (isinstance(exc, ServiceClosed)
                        or time.monotonic() + delay > deadline):
                    exc.accepted_job_ids = [job_id for job_id, _ in pairs]
                    exc.payload["accepted_job_ids"] = exc.accepted_job_ids
                    raise
                time.sleep(self._jittered(delay))
                delay = min(delay * 2, 5.0)
                continue
            pairs.extend(zip((job["id"] for job in jobs), remaining))
            remaining = []
        return pairs

    def _collect_result(self, job_id: str, field: Dict[str, Any],
                        deadline: float) -> SimulationResult:
        """One job's result, resubmitting on 404 after a server restart."""
        while True:
            budget = deadline - time.monotonic()
            if budget <= 0:
                # an already-passed deadline used to be clamped to a 1 s
                # floor, so a timed-out batch kept blocking one second
                # per job instead of failing promptly
                raise ServiceTimeout(
                    f"job {job_id}: batch deadline already passed")
            try:
                return self.result(job_id, timeout=budget)
            except ServiceError as exc:
                if exc.status == 404 and time.monotonic() < deadline:
                    pairs = self._submit_riding_backpressure(
                        [field], deadline)
                    job_id = pairs[0][0]
                    continue
                raise
