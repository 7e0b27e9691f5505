"""Deterministic, seeded fault injection for the service stack.

The paper's pitch is that DCG is *deterministic* — no prediction, no
misprediction recovery — and the reproduction holds its serving layer
to the same standard: a worker crash, a corrupted cache entry, a
dropped connection, or a spurious backpressure rejection must never
change a result or lose an accepted job.  This module provides the
*injection* half of that proof: a seeded plan of faults threaded
through the real failure paths, so the chaos suite exercises exactly
the recovery code production would run.

Spec grammar (the ``REPRO_FAULTS`` environment variable)::

    REPRO_FAULTS="worker.crash:p=0.2,seed=7;cache.corrupt:nth=3;http.drop:nth=2"

Rules are ``;``-separated; each is ``<site>:<param>=<value>,...``.
Exactly one trigger mode per rule:

* ``p=<0..1>`` — Bernoulli draw per arrival from a per-rule
  ``random.Random`` seeded with ``seed`` (default 0), so the decision
  *sequence* is reproducible across runs.
* ``nth=<k>`` — fire on every ``k``-th arrival at the site
  (arrival counting starts at 1).

``times=<n>`` optionally caps the total injections for a rule.

Injection sites (:data:`SITES`):

========================  =================================================
``worker.crash``          raise ``WorkerCrash`` on a job's *first* compute
                          attempt (never the retry — the retry path is the
                          mechanism under test, and an injected
                          double-crash would fail the job by design)
``cache.corrupt``         scribble garbage over an existing on-disk
                          :class:`~repro.sim.cache.ResultCache` entry just
                          before it is read, driving the real
                          corruption-tolerance path (delete + recompute)
``http.drop``             raise a synthetic ``ConnectionResetError`` in
                          :class:`~repro.service.client.ServiceClient`
                          before the request reaches the wire, driving the
                          client's retry/backoff path
``queue.full``            make :meth:`~repro.service.jobs.JobQueue.submit`
                          reject a new job as if the queue were at its
                          bound, driving the 429/resubmission path
========================  =================================================

With ``REPRO_FAULTS`` unset the plan is disabled and every
:func:`should_inject` call is a dictionary miss — no RNG, no lock, no
events — so the invariance goldens and the ``e2ebench`` workloads are
untouched (all sites sit on per-job/per-request paths, never the
per-cycle hot loop).

Every fired injection emits a ``fault.inject`` journal event and, when
a registry is bound (the service binds its own), increments
``repro_faults_injected_total{site=...}``.
"""

from __future__ import annotations

import os
import random
import threading
from collections import Counter as TallyCounter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..obs.events import get_journal
from ..obs.metrics import MetricsRegistry

__all__ = ["FAULTS_ENV_VAR", "FaultPlan", "FaultRule", "SITES",
           "configure_faults", "corrupt_file", "fault_active", "get_plan",
           "parse_spec", "should_inject"]

#: environment variable holding the fault spec
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: the valid injection sites and what firing each one does
SITES: Dict[str, str] = {
    "worker.crash": "raise WorkerCrash on a job's first compute attempt",
    "cache.corrupt": "corrupt an on-disk cache entry before it is read",
    "http.drop": "drop a client HTTP request before it reaches the wire",
    "queue.full": "reject a submission as if the queue were at its bound",
}

#: bytes scribbled over a cache entry by ``cache.corrupt`` (invalid JSON)
_GARBAGE = b'\x00{"corrupted-by": "repro-fault-injection"'


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule: a site plus its deterministic trigger."""

    site: str
    p: Optional[float] = None        #: Bernoulli probability per arrival
    nth: Optional[int] = None        #: fire on every nth arrival
    seed: int = 0                    #: RNG seed (p-mode only)
    times: Optional[int] = None      #: cap on total injections

    def validate(self) -> None:
        if self.site not in SITES:
            valid = ", ".join(sorted(SITES))
            raise ValueError(
                f"unknown fault site {self.site!r}; choose one of: {valid}")
        if (self.p is None) == (self.nth is None):
            raise ValueError(
                f"{self.site}: give exactly one of p=<prob> or nth=<k>")
        if self.p is not None and not 0.0 < self.p <= 1.0:
            raise ValueError(f"{self.site}: p must be in (0, 1], "
                             f"got {self.p}")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"{self.site}: nth must be >= 1, "
                             f"got {self.nth}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"{self.site}: times must be >= 1, "
                             f"got {self.times}")


class FaultPlan:
    """The process's active fault rules plus their decision state.

    ``decide`` is the single chokepoint: it counts the arrival, applies
    the site's rule deterministically, records the injection (tally,
    journal event, bound metrics counter), and returns whether the call
    site should fire its fault.  A site without a rule returns False on
    a plain dict miss — the disabled cost.
    """

    def __init__(self, rules: Iterable[FaultRule] = ()) -> None:
        self._rules: Dict[str, FaultRule] = {}
        self._rngs: Dict[str, random.Random] = {}
        for rule in rules:
            rule.validate()
            if rule.site in self._rules:
                raise ValueError(f"duplicate rule for site {rule.site!r}")
            self._rules[rule.site] = rule
            if rule.p is not None:
                self._rngs[rule.site] = random.Random(rule.seed)
        self._lock = threading.Lock()
        self._arrivals: TallyCounter = TallyCounter()
        self._injected: TallyCounter = TallyCounter()
        self._counter = None             # bound registry counter, if any

    @property
    def enabled(self) -> bool:
        return bool(self._rules)

    def active(self, site: str) -> bool:
        """Whether ``site`` has a rule (cheap pre-check for call sites
        whose arrival definition needs extra work, e.g. a stat call)."""
        return site in self._rules

    def decide(self, site: str) -> bool:
        """Count one arrival at ``site``; True when the fault fires."""
        rule = self._rules.get(site)
        if rule is None:
            return False
        with self._lock:
            self._arrivals[site] += 1
            arrival = self._arrivals[site]
            if rule.times is not None and self._injected[site] >= rule.times:
                return False
            if rule.nth is not None:
                fire = arrival % rule.nth == 0
            else:
                fire = self._rngs[site].random() < rule.p
            if fire:
                self._injected[site] += 1
                injected = self._injected[site]
        if not fire:
            return False
        get_journal().emit("fault.inject", site=site, arrival=arrival,
                           injected=injected)
        if self._counter is not None:
            self._counter.labels(site=site).inc()
        return True

    def bind(self, registry: MetricsRegistry) -> None:
        """Expose injections as ``repro_faults_injected_total{site=}``.

        The service binds its registry at construction; rules' children
        are pre-created so an idle site still scrapes as 0.
        """
        self._counter = registry.counter(
            "repro_faults_injected_total",
            "faults fired by the REPRO_FAULTS injection plan",
            labelnames=("site",))
        for site in self._rules:
            self._counter.labels(site=site)

    def counts(self) -> Dict[str, Dict[str, int]]:
        """``{site: {"arrivals": n, "injected": m}}`` snapshot."""
        with self._lock:
            return {site: {"arrivals": self._arrivals[site],
                           "injected": self._injected[site]}
                    for site in self._rules}

    def describe(self) -> str:
        """One-line human summary (the CLI prints it at serve startup)."""
        if not self._rules:
            return "off"
        parts: List[str] = []
        for site, rule in sorted(self._rules.items()):
            trigger = (f"p={rule.p:g},seed={rule.seed}"
                       if rule.p is not None else f"nth={rule.nth}")
            if rule.times is not None:
                trigger += f",times={rule.times}"
            parts.append(f"{site}:{trigger}")
        return ";".join(parts)


def parse_spec(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`.

    Raises ``ValueError`` with a readable message on any malformed
    rule; an empty or whitespace-only spec yields a disabled plan.
    """
    rules: List[FaultRule] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, _sep, params = chunk.partition(":")
        site = site.strip()
        if not _sep or not params.strip():
            raise ValueError(
                f"fault rule {chunk!r} needs parameters, e.g. "
                f"{site or '<site>'}:p=0.2 or {site or '<site>'}:nth=3")
        fields: Dict[str, str] = {}
        for pair in params.split(","):
            key, sep, value = pair.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(f"{site}: malformed parameter {pair!r} "
                                 "(expected key=value)")
            if key in fields:
                raise ValueError(f"{site}: duplicate parameter {key!r}")
            fields[key] = value
        unknown = set(fields) - {"p", "nth", "seed", "times"}
        if unknown:
            raise ValueError(
                f"{site}: unknown parameter(s) {sorted(unknown)}; "
                "valid: p, nth, seed, times")
        if "seed" in fields and "p" not in fields:
            raise ValueError(f"{site}: seed is only meaningful with p=")
        try:
            rule = FaultRule(
                site=site,
                p=float(fields["p"]) if "p" in fields else None,
                nth=int(fields["nth"]) if "nth" in fields else None,
                seed=int(fields.get("seed", 0)),
                times=int(fields["times"]) if "times" in fields else None)
        except ValueError as exc:
            if "invalid literal" in str(exc) or "could not convert" in \
                    str(exc):
                raise ValueError(
                    f"{site}: non-numeric parameter value in {chunk!r}"
                ) from None
            raise
        rules.append(rule)
    plan = FaultPlan(rules)
    return plan


_DISABLED = FaultPlan()
_plan: Optional[FaultPlan] = None
_plan_lock = threading.Lock()


def get_plan() -> FaultPlan:
    """The process-wide plan, resolved from ``REPRO_FAULTS`` once.

    A forked worker child re-resolves from its inherited environment,
    so a distributed run shares one spec (though each process keeps its
    own arrival counters — determinism is per-process, per-site).
    """
    global _plan
    if _plan is None:
        with _plan_lock:
            if _plan is None:
                spec = os.environ.get(FAULTS_ENV_VAR, "")
                _plan = parse_spec(spec) if spec.strip() else _DISABLED
    return _plan


def configure_faults(spec: Optional[str]) -> FaultPlan:
    """Install an explicit plan (tests, embedding).

    ``configure_faults(None)`` resets, so the next :func:`get_plan`
    re-resolves from the environment; a spec string installs its parsed
    plan immediately (an empty string disables injection outright).
    """
    global _plan
    with _plan_lock:
        if spec is None:
            _plan = None
            return _DISABLED
        _plan = parse_spec(spec) if spec.strip() else FaultPlan()
        return _plan


def should_inject(site: str) -> bool:
    """Count one arrival at ``site`` on the active plan; True to fire."""
    return get_plan().decide(site)


def fault_active(site: str) -> bool:
    """Whether the active plan has a rule for ``site`` (no counting)."""
    plan = get_plan()
    return plan.enabled and plan.active(site)


def corrupt_file(path: str) -> bool:
    """Overwrite ``path`` with non-JSON garbage; False if that failed.

    The ``cache.corrupt`` payload: the damaged entry must go down the
    cache's *real* corruption-tolerance path (parse failure → delete →
    recompute), so the file is truncated and scribbled rather than
    removed.
    """
    try:
        with open(path, "wb") as handle:
            handle.write(_GARBAGE)
        return True
    except OSError:
        return False
