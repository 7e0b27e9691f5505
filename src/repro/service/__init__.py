"""Simulation service: job queue, worker pool, HTTP server, client.

The serving layer over the cached parallel runner — accept simulation
requests over the network, dedup and queue them, drain them through the
memory -> disk -> simulate resolution path, and answer repeats straight
from the cache.  ``python -m repro serve`` boots it; ``python -m repro
submit`` and :class:`ServiceClient` talk to it.
"""

from .client import (DEADLINE_HEADER, BackpressureError, JobFailed,
                     ServiceClient, ServiceClosed, ServiceError,
                     ServiceTimeout, default_server_url)
from ..sim.cache import spec_fingerprint
from .jobs import (Job, JobQueue, JobState, QueueClosed, QueueFull,
                   make_spec, validate_spec)
from .persist import (STATE_DIR_ENV_VAR, PendingJob, QueueJournal)
from .server import ServiceServer, SimulationService, serve
from .workers import JobTimeout, ShutdownRequested, WorkerCrash, WorkerPool

__all__ = [
    "BackpressureError",
    "DEADLINE_HEADER",
    "Job",
    "JobFailed",
    "JobQueue",
    "JobState",
    "JobTimeout",
    "PendingJob",
    "QueueClosed",
    "QueueFull",
    "QueueJournal",
    "STATE_DIR_ENV_VAR",
    "ServiceClient",
    "ServiceClosed",
    "ServiceError",
    "ServiceServer",
    "ServiceTimeout",
    "ShutdownRequested",
    "SimulationService",
    "WorkerCrash",
    "WorkerPool",
    "default_server_url",
    "make_spec",
    "serve",
    "spec_fingerprint",
    "validate_spec",
]
