"""Experiment runner with in-memory and on-disk result caching.

Every figure in §5 is computed from the same small set of
(machine-config, benchmark, policy) simulations; the runner memoises
them in-process so the per-figure harnesses in :mod:`repro.analysis`
can be run in any order without re-simulating, persists them through a
:class:`~repro.sim.cache.ResultCache` so later *processes* don't
re-simulate either, and fans grid batches out across worker processes
via :func:`~repro.sim.parallel.execute_specs`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.interface import GatingPolicy
from ..obs.events import get_journal
from ..power.budget import PowerCalibration
from ..workloads.profiles import get_profile
from .cache import ResultCache, spec_fingerprint
from .configs import config_from_tag, instruction_budget
from .parallel import (ProgressFn, RunReport, RunSpec, execute_specs,
                       simulate_spec)
from .simulator import BUILTIN_POLICIES, SimulationResult, Simulator

__all__ = ["ExperimentRunner"]

#: (benchmark, policy) or (benchmark, policy, tag) — the loose request
#: form accepted by :meth:`ExperimentRunner.run_many` / ``prefetch``
Request = Union[Tuple[str, str], Tuple[str, str, str]]


class ExperimentRunner:
    """Memoising, disk-backed, optionally parallel façade over
    :class:`Simulator`.

    Parameters
    ----------
    instructions:
        Per-run instruction budget (defaults to
        :func:`~repro.sim.configs.default_instructions`, which honours
        ``REPRO_SIM_INSTRUCTIONS``); must be positive when given.
    calibration:
        Power calibration shared by all configurations.
    cache:
        On-disk result cache; defaults to a :class:`ResultCache` rooted
        at ``$REPRO_CACHE_DIR`` (disabled when the variable is unset).
    jobs:
        Worker processes for :meth:`run_many`/:meth:`prefetch` batches
        (single :meth:`run` calls are always in-process).
    progress:
        Callback receiving a :class:`~repro.sim.parallel.RunReport` per
        completed lookup or simulation; the CLI uses it for per-run
        timing and cache hit/miss lines.
    remote:
        Remote executor — any object with
        ``run_specs(specs) -> List[SimulationResult]`` (a
        :class:`~repro.service.client.ServiceClient`).  When set, cache
        misses are submitted to a shared simulation server instead of
        simulated in-process; hits are still answered locally.
    sample:
        Optional "KxL" interval-sampling plan applied to every run this
        runner issues (see :mod:`repro.sim.sampling`).  Sampled results
        are cached under their own fingerprints, so sampled and full
        studies never alias each other.
    """

    def __init__(self, instructions: Optional[int] = None,
                 calibration: Optional[PowerCalibration] = None,
                 cache: Optional[ResultCache] = None,
                 jobs: int = 1,
                 progress: Optional[ProgressFn] = None,
                 remote: Optional[object] = None,
                 sample: Optional[str] = None) -> None:
        self.instructions = instruction_budget(instructions)
        self.calibration = calibration or PowerCalibration()
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = jobs
        self.progress = progress
        self.remote = remote
        if sample is not None:
            from .sampling import SampleSpec
            SampleSpec.parse(sample).validate(self.instructions)
        self.sample = sample
        self._simulators: Dict[str, Simulator] = {}
        #: in-process memo, keyed on the whole spec: a service request
        #: may override seed, budget or sample plan per job
        self._cache: Dict[RunSpec, SimulationResult] = {}

    # -- configurations ---------------------------------------------------

    def simulator(self, tag: str = "baseline") -> Simulator:
        if tag not in self._simulators:
            self._simulators[tag] = Simulator(
                config_from_tag(tag), self.calibration)
        return self._simulators[tag]

    # -- cache plumbing ---------------------------------------------------

    def _spec(self, benchmark: str, policy: str, tag: str) -> RunSpec:
        profile = get_profile(benchmark)
        return RunSpec(tag=tag, benchmark=profile.name, policy=policy,
                       instructions=self.instructions, seed=profile.seed,
                       sample=self.sample)

    def _report(self, spec: RunSpec, seconds: float, source: str,
                batch_size: int = 1) -> None:
        if self.progress is not None:
            self.progress(RunReport(spec, seconds, source, batch_size))

    def _memoise(self, spec: RunSpec, result: SimulationResult,
                 persist: bool) -> None:
        self._cache[spec] = result
        if persist:
            self.cache.put(spec_fingerprint(spec, self.calibration), result)

    @staticmethod
    def _emit_cache(kind: str, spec: RunSpec,
                    layer: Optional[str] = None) -> None:
        """``cache.hit``/``cache.miss`` journal event for one lookup."""
        get_journal().emit(kind, layer=layer, benchmark=spec.benchmark,
                           policy=spec.policy, tag=spec.tag)

    def cached(self, spec: RunSpec, disk: bool = True
               ) -> Optional[Tuple[SimulationResult, str]]:
        """Memory-then-disk lookup of ``spec`` without simulating.

        Returns ``(result, source)`` with source ``"memory"`` or
        ``"disk"`` (disk hits are promoted into memory), or None on a
        full miss.  ``disk=False`` looks in memory only and reports no
        miss.  :meth:`run`, :meth:`run_many` and the service's worker
        pool all resolve a spec through this one path.
        """
        if spec in self._cache:
            if get_journal().enabled:
                self._emit_cache("cache.hit", spec, "memory")
            return self._cache[spec], "memory"
        if not disk:
            return None
        stored = self.cache.get(spec_fingerprint(spec, self.calibration))
        if stored is not None:
            self._cache[spec] = stored
            self._emit_cache("cache.hit", spec, "disk")
            return stored, "disk"
        self._emit_cache("cache.miss", spec)
        return None

    def memoise_spec(self, spec: RunSpec, result: SimulationResult) -> None:
        """Record an externally computed result in memory and on disk."""
        self._memoise(spec, result, persist=True)

    def _execute(self, specs: Sequence[RunSpec],
                 jobs: int) -> List[SimulationResult]:
        """Simulate cache misses: remote server if bound, else local."""
        if self.remote is not None:
            start = time.perf_counter()
            results = self.remote.run_specs(specs)
            elapsed = time.perf_counter() - start
            # one round-trip served the whole batch: report the batch
            # total with its size, not a fabricated per-spec average
            batch = len(specs)
            for spec in specs:
                self._report(spec, elapsed, "remote", batch_size=batch)
            return results
        return execute_specs(specs, self.calibration, jobs=jobs,
                             progress=self.progress)

    # -- runs -------------------------------------------------------------

    def run(self, benchmark: str, policy: str = "base",
            tag: str = "baseline",
            policy_factory: Optional[Callable[[], GatingPolicy]] = None
            ) -> SimulationResult:
        """Cached simulation of ``benchmark`` under ``policy``.

        ``policy`` is the cache key; pass ``policy_factory`` to run a
        custom-configured policy object under a distinct name (ablation
        studies do this).  Rebinding a built-in policy name to a custom
        factory is rejected — it would poison every cached figure that
        shares the key.  Factory runs stay out of the disk cache: a
        fingerprint cannot see a closure's configuration.
        """
        if policy_factory is not None and policy in BUILTIN_POLICIES:
            raise ValueError(
                f"policy name {policy!r} is reserved for the built-in "
                "policy; run a custom factory under a distinct name")
        spec = self._spec(benchmark, policy, tag)
        hit = self.cached(spec, disk=policy_factory is None)
        if hit is not None:
            result, source = hit
            if source == "disk":
                self._report(spec, 0.0, "disk")
            return result
        if self.remote is not None and policy_factory is None:
            result = self._execute([spec], jobs=1)[0]
            self._memoise(spec, result, persist=True)
            return result
        start = time.perf_counter()
        if policy_factory is None:
            # simulate_spec is the instrumented sim chokepoint (span +
            # sim.* journal events)
            result = simulate_spec(spec, self.calibration)
        else:
            result = self.simulator(tag).run_benchmark(
                benchmark, policy_factory(), instructions=self.instructions,
                seed=spec.seed)
        self._report(spec, time.perf_counter() - start, "run")
        self._memoise(spec, result, persist=policy_factory is None)
        return result

    # -- batched runs -----------------------------------------------------

    @staticmethod
    def _normalise(request: Request) -> Tuple[str, str, str]:
        if len(request) == 2:
            benchmark, policy = request  # type: ignore[misc]
            return benchmark, policy, "baseline"
        benchmark, policy, tag = request  # type: ignore[misc]
        return benchmark, policy, tag

    def run_many(self, requests: Sequence[Request],
                 jobs: Optional[int] = None) -> List[SimulationResult]:
        """Results for a whole batch, simulating only the misses.

        Memory hits are returned as-is, disk hits are loaded, and the
        remaining runs are fanned out across ``jobs`` worker processes
        (``self.jobs`` by default, serial when 1).  Results come back
        in request order regardless of worker scheduling.
        """
        jobs = self.jobs if jobs is None else jobs
        specs = [self._spec(*self._normalise(r)) for r in requests]
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        # each missed spec and every batch index that asked for it
        pending: Dict[RunSpec, List[int]] = {}
        for i, spec in enumerate(specs):
            if spec in pending:       # duplicate of a miss in this batch
                pending[spec].append(i)
                continue
            hit = self.cached(spec)
            if hit is None:
                pending[spec] = [i]
                continue
            results[i], source = hit
            if source == "disk":      # memory hits would flood progress
                self._report(spec, 0.0, "disk")
        if pending:
            fresh = self._execute(list(pending), jobs=jobs)
            for (spec, indices), result in zip(pending.items(), fresh):
                self._memoise(spec, result, persist=True)
                for i in indices:
                    results[i] = result
        return results  # type: ignore[return-value]

    def prefetch(self, requests: Sequence[Request],
                 jobs: Optional[int] = None) -> None:
        """Warm the cache for a batch; later :meth:`run` calls all hit."""
        self.run_many(requests, jobs=jobs)

    # -- named shortcuts --------------------------------------------------

    def base(self, benchmark: str, tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "base", tag)

    def dcg(self, benchmark: str, tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "dcg", tag)

    def plb_orig(self, benchmark: str,
                 tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "plb-orig", tag)

    def plb_ext(self, benchmark: str,
                tag: str = "baseline") -> SimulationResult:
        return self.run(benchmark, "plb-ext", tag)
