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
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.interface import GatingPolicy
from ..obs.events import get_journal
from ..power.budget import PowerCalibration
from ..workloads.profiles import get_profile
from .cache import ResultCache, spec_fingerprint
from .configs import config_from_tag, instruction_budget
from .parallel import ProgressFn, RunReport, RunSpec, execute_specs
from .simulator import BUILTIN_POLICIES, SimulationResult, Simulator

__all__ = ["ExperimentRunner"]

#: (benchmark, policy) or (benchmark, policy, tag) — the loose request
#: form accepted by :meth:`ExperimentRunner.run_many` / ``prefetch``
Request = Union[Tuple[str, str], Tuple[str, str, str]]

#: results an :class:`ExperimentRunner` keeps in memory, least recently
#: used evicted first — at least the 144-cell report grid, so figures
#: assembled after one ``prefetch`` never go back to disk.  ``repro
#: serve`` keeps one runner for its whole life; without the bound its
#: memo grew by about 3 KB per distinct run served.
MEMO_RESULTS_KEPT = 1024


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
        #: in-process LRU memo, keyed on the whole spec (a service
        #: request may override seed, budget or sample plan per job), so
        #: a hit needs no fingerprint
        self._cache: OrderedDict[RunSpec, SimulationResult] = OrderedDict()

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

    def _remember(self, spec: RunSpec, result: SimulationResult) -> None:
        """Memo ``result`` under ``spec``, evicting past the bound."""
        self._cache[spec] = result
        self._cache.move_to_end(spec)
        while len(self._cache) > MEMO_RESULTS_KEPT:
            self._cache.popitem(last=False)

    def _key(self, spec: RunSpec) -> str:
        return spec_fingerprint(spec, self.calibration)

    @staticmethod
    def _emit_cache(kind: str, spec: RunSpec,
                    layer: Optional[str] = None) -> None:
        """``cache.hit``/``cache.miss`` journal event for one lookup."""
        get_journal().emit(kind, layer=layer, benchmark=spec.benchmark,
                           policy=spec.policy, tag=spec.tag)

    def cached(self, spec: RunSpec, key: Optional[str] = None
               ) -> Optional[Tuple[SimulationResult, str]]:
        """Memory-then-disk lookup of ``spec`` without simulating.

        Returns ``(result, source)`` with source ``"memory"`` or
        ``"disk"`` (disk hits are promoted into memory), or None on a
        full miss.  :meth:`run_many` and the service's worker pool
        resolve a spec through the same two steps, :meth:`_memory` then
        :meth:`_disk`; ``key`` is the spec's fingerprint when the
        caller already has it (a queued job does).
        """
        result = self._memory(spec)
        if result is not None:
            return result, "memory"
        stored = self._disk(spec, key or self._key(spec))
        return None if stored is None else (stored, "disk")

    def _memory(self, spec: RunSpec) -> Optional[SimulationResult]:
        """Memo lookup by spec alone: no fingerprint work."""
        result = self._cache.get(spec)
        if result is not None:
            self._cache.move_to_end(spec)
            if get_journal().enabled:
                self._emit_cache("cache.hit", spec, "memory")
        return result

    def _disk(self, spec: RunSpec, key: str) -> Optional[SimulationResult]:
        """Disk lookup under ``key``; a hit is promoted into memory."""
        stored = self.cache.get(key)
        if stored is None:
            self._emit_cache("cache.miss", spec)
            return None
        self._remember(spec, stored)
        self._emit_cache("cache.hit", spec, "disk")
        return stored

    def memoise_spec(self, spec: RunSpec, result: SimulationResult,
                     key: Optional[str] = None) -> None:
        """Record an externally computed result in memory and on disk,
        on disk under ``key`` when the caller has the fingerprint."""
        self._remember(spec, result)
        self.cache.put(key or self._key(spec), result)

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
        fingerprint cannot see a closure's configuration.  Any other
        miss resolves as a one-run :meth:`run_many` batch.
        """
        if policy_factory is not None and policy in BUILTIN_POLICIES:
            raise ValueError(
                f"policy name {policy!r} is reserved for the built-in "
                "policy; run a custom factory under a distinct name")
        spec = self._spec(benchmark, policy, tag)
        result = self._memory(spec)
        if result is not None:
            return result
        if policy_factory is None:
            return self.run_many([(benchmark, policy, tag)])[0]
        start = time.perf_counter()
        result = self.simulator(tag).run_benchmark(
            benchmark, policy_factory(), instructions=self.instructions,
            seed=spec.seed)
        self._report(spec, time.perf_counter() - start, "run")
        self._remember(spec, result)
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

        Specs are deduplicated on their fingerprint, not their fields:
        two tags naming the same machine (``int_alus=6`` and
        ``baseline``) are read, simulated and filed once.
        """
        jobs = self.jobs if jobs is None else jobs
        specs = [self._spec(*self._normalise(r)) for r in requests]
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        # fingerprints this batch found on disk
        found: Dict[str, SimulationResult] = {}
        # each missed fingerprint and every batch index that asked for it
        pending: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            result = self._memory(spec)
            if result is not None:
                results[i] = result
                continue
            key = self._key(spec)
            if key in pending:        # same run as a miss in this batch
                pending[key].append(i)
                continue
            result = found.get(key)
            if result is not None:    # same run as a disk hit: in memory
                self._remember(spec, result)
                if get_journal().enabled:
                    self._emit_cache("cache.hit", spec, "memory")
            else:
                result = self._disk(spec, key)
                if result is None:
                    pending[key] = [i]
                    continue
                found[key] = result
                self._report(spec, 0.0, "disk")  # memory hits would flood
            results[i] = result
        if pending:
            missed = [specs[indices[0]] for indices in pending.values()]
            fresh = self._execute(missed, jobs=jobs)
            for (key, indices), result in zip(pending.items(), fresh):
                self.cache.put(key, result)
                for i in indices:
                    self._remember(specs[i], result)
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
