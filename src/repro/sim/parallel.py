"""Multiprocessing fan-out for the experiment grid.

The (config, benchmark, policy) grid behind the paper's figures is
embarrassingly parallel: every run is an independent, seeded, pure
computation.  :func:`execute_specs` splits a batch of :class:`RunSpec`
into *tasks*, one per benchmark input (profile, seed, budget,
hierarchy config; :func:`plan_tasks`), distributes the tasks across a
process pool, and returns results in submission order, so the output
is byte-identical to a serial run no matter how many workers raced to
produce it.  The serial loop and the pool run the same tasks through
:func:`simulate_task`.

Inside a task, specs are grouped by timing: every timing-neutral
policy (:func:`~repro.sim.simulator.timing_neutral`: base, DCG,
``dcg+iq``) on one machine shares one pipeline, the first driving it
and the rest riding along as
:class:`~repro.sim.simulator.PolicyRider` s; any other policy runs
alone.  A task prewarms one memory system, hands each timing group a
copy, and below :data:`SHARED_TRACE_MAX_OPS` draws the trace once.
Sampled and checkpointed specs are tasks of their own and run through
:func:`simulate_spec` — the journal and histograms wrapper around the
one run driver, :func:`~repro.sim.checkpoint.run_spec`.

Worker count comes from the ``--jobs`` CLI flag or the ``REPRO_JOBS``
environment variable; ``jobs=1`` (the default), a single-task batch and
any platform where a pool cannot be created fall back to a plain
serial loop.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from ..memory.hierarchy import CacheHierarchy
from ..obs.events import get_journal
from ..obs.histograms import CycleHistograms, histograms_enabled
from ..obs.tracing import OpenSpan, SpanContext, activate, current_context
from ..pipeline.config import MachineConfig
from ..pipeline.usage import CycleObserver
from ..power.budget import PowerCalibration
from ..trace.uop import MicroOp
from ..workloads.profiles import get_profile
from ..workloads.synthetic import SyntheticTraceGenerator
from .checkpoint import CheckpointStore, PausableRun, run_spec, \
    straight_through
from .configs import config_from_tag, instruction_budget
from .simulator import PolicyRider, SimulationResult, make_policy, \
    timing_neutral

__all__ = ["RunSpec", "RunReport", "default_jobs", "execute_specs",
           "plan_tasks", "simulate_spec", "simulate_task", "JOBS_ENV_VAR",
           "SHARED_TRACE_MAX_OPS"]

#: environment variable naming the default worker count
JOBS_ENV_VAR = "REPRO_JOBS"

#: longest budget whose ops a task draws once and shares between its
#: timing groups.  A drawn op costs about 230 B, so the shared trace
#: stays near 2 MB; longer runs draw from a seeded generator per
#: group, which yields the same ops.
SHARED_TRACE_MAX_OPS = 8192


@dataclass(frozen=True)
class RunSpec:
    """One cell of the experiment grid, picklable for worker dispatch.

    ``seed`` is the resolved trace-generator seed (the profile's own
    seed unless a variance study overrides it), fixed at submission
    time so parallel and serial executions replay identical streams.
    ``sample`` is an optional "KxL" interval-sampling plan (see
    :mod:`repro.sim.sampling`); None means a full run.
    """

    tag: str
    benchmark: str
    policy: str
    instructions: int
    seed: Optional[int] = None
    sample: Optional[str] = None


@dataclass
class RunReport:
    """Timing/provenance of one completed run, for progress lines.

    ``seconds`` is the wall-clock of the unit actually measured, which
    served ``batch_size`` specs: a local task (every spec of one
    benchmark input, simulated together), or a remote batch (one HTTP
    round-trip).  Every spec's report carries the whole unit's elapsed
    time plus its size — the caller can show an honest total instead
    of a fabricated per-spec average.
    """

    spec: RunSpec
    seconds: float
    source: str                    #: "run" | "memory" | "disk" | "remote"
    batch_size: int = 1            #: specs sharing this measurement

    @property
    def instructions_per_second(self) -> float:
        """Instructions the measured unit served per second."""
        # cache hits can report sub-resolution timings; clamp to the
        # timer's practical resolution so a progress line never claims
        # a misleading "0 instr/s"
        return (self.spec.instructions * self.batch_size
                / max(self.seconds, 1e-9))


def default_jobs(default: int = 1) -> int:
    """Worker count from ``REPRO_JOBS`` (>=1), else ``default``."""
    value = os.environ.get(JOBS_ENV_VAR)
    if value is None:
        return default
    jobs = int(value)
    if jobs <= 0:
        raise ValueError(f"{JOBS_ENV_VAR} must be positive")
    return jobs


# -- worker side ------------------------------------------------------------

_WORKER_CALIBRATION: Optional[PowerCalibration] = None
_WORKER_CONTEXT: Optional[SpanContext] = None


def _init_worker(calibration: PowerCalibration,
                 context: Optional[SpanContext] = None) -> None:
    global _WORKER_CALIBRATION, _WORKER_CONTEXT
    _WORKER_CALIBRATION = calibration
    _WORKER_CONTEXT = context


def _instrumented(specs: Sequence[RunSpec], histograms: bool,
                  run: Callable[[List[List[CycleObserver]]],
                                List[SimulationResult]]
                  ) -> List[SimulationResult]:
    """``run(observers)`` — one observer list per spec — with each
    spec's journal events around it.

    The single sim-level observability chokepoint.  With a journal
    configured every spec gets its own ``sim`` span (siblings under the
    caller's context; a shared run executes under the first one) and
    its own ``sim.start`` and ``sim.finish`` (or ``sim.error``) events;
    with ``histograms`` each spec's observer list holds a
    :class:`~repro.obs.histograms.CycleHistograms`, emitted as its
    ``sim.histograms`` event.  With neither, ``run`` gets empty lists
    and nothing else happens.
    """
    journal = get_journal()
    if not journal.enabled and not histograms:
        return run([[] for _ in specs])
    sims = []
    for spec in specs:
        ident = {"benchmark": spec.benchmark, "policy": spec.policy,
                 "tag": spec.tag}
        sim = OpenSpan("sim", **ident)
        with activate(sim.context):
            journal.emit("sim.start", instructions=spec.instructions,
                         seed=spec.seed, sample=spec.sample, **ident)
        sims.append((sim, ident, CycleHistograms() if histograms else None))
    start = time.perf_counter()
    try:
        with activate(sims[0][0].context):
            results = run([[] if hist is None else [hist]
                           for _sim, _ident, hist in sims])
    except BaseException as exc:
        for sim, ident, _hist in sims:
            if isinstance(exc, Exception):
                with activate(sim.context):
                    journal.emit("sim.error",
                                 seconds=time.perf_counter() - start,
                                 error=f"{type(exc).__name__}: {exc}",
                                 **ident)
            sim.end("error")
        raise
    seconds = time.perf_counter() - start
    for (sim, ident, hist), result in zip(sims, results):
        with activate(sim.context):
            journal.emit("sim.finish", seconds=seconds,
                         cycles=result.cycles,
                         instructions=result.instructions,
                         ipc=round(result.ipc, 4),
                         total_saving=round(result.total_saving, 6),
                         **ident)
            if hist is not None:
                journal.emit("sim.histograms", **ident, **hist.summary())
        sim.end()
    return results


def simulate_spec(spec: RunSpec,
                  calibration: Optional[PowerCalibration] = None,
                  stop: Optional[object] = None) -> SimulationResult:
    """Run one grid cell from scratch (no caching) through
    :func:`~repro.sim.checkpoint.run_spec`, journaled like every
    simulation.

    With ``REPRO_HISTOGRAMS`` set it attaches histograms to
    straight-through runs only; sampled and checkpointed runs emit no
    ``sim.histograms`` rather than an empty one, because the histograms
    hook a single pipeline's observer list.

    ``stop`` is an optional ``threading.Event``-like object polled
    between steps; when it fires mid-run the state is snapshotted and
    :class:`~repro.sim.checkpoint.SimulationInterrupted` propagates.
    """
    store = CheckpointStore()
    histograms = histograms_enabled() and straight_through(spec, store)
    return _instrumented([spec], histograms, lambda observers: [run_spec(
        spec, calibration, store=store, stop=stop,
        observers=observers[0])])[0]


def plan_tasks(specs: Sequence[RunSpec]) -> List[List[int]]:
    """``specs``' indices grouped into tasks, in first-appearance
    order.  A task is one benchmark input — profile, seed, budget and
    the memory system it prewarms; a sampled or checkpointed spec
    shares nothing and is a task of its own."""
    store = CheckpointStore()
    tasks: Dict[Hashable, List[int]] = {}
    for index, spec in enumerate(specs):
        key: Hashable = index
        if straight_through(spec, store):
            profile = get_profile(spec.benchmark)
            key = (profile.name,
                   profile.seed if spec.seed is None else spec.seed,
                   instruction_budget(spec.instructions),
                   config_from_tag(spec.tag).hierarchy)
        tasks.setdefault(key, []).append(index)
    return list(tasks.values())


def _timing_groups(specs: Sequence[RunSpec]
                   ) -> List[Tuple[MachineConfig, List[int]]]:
    """One task's indices grouped by timing: every timing-neutral
    policy on one machine shares a pipeline, any other runs alone."""
    groups: List[Tuple[MachineConfig, List[int], bool]] = []
    for index, spec in enumerate(specs):
        config = config_from_tag(spec.tag)
        policy = make_policy(spec.policy)
        policy.bind(config)
        neutral = timing_neutral(policy, config)
        for shared, indices, open_ in groups:
            if neutral and open_ and shared == config:
                indices.append(index)
                break
        else:
            groups.append((config, [index], neutral))
    return [(config, indices) for config, indices, _open in groups]


def simulate_task(specs: Sequence[RunSpec],
                  calibration: Optional[PowerCalibration] = None
                  ) -> List[SimulationResult]:
    """Simulate one task from :func:`plan_tasks`; results in spec order.

    Each timing group runs as one pipeline: its first spec's policy
    drives the core and the others ride along as
    :class:`~repro.sim.simulator.PolicyRider` s.  With more than one
    group the task prewarms one memory system and hands each group a
    copy (the last group the original), and, up to
    :data:`SHARED_TRACE_MAX_OPS`, draws the trace once for all of them.
    Groups run one after another, so at most the warm hierarchy, one
    copy and one trace are live.
    """
    if len(specs) == 1 and not straight_through(specs[0],
                                                CheckpointStore()):
        return [simulate_spec(specs[0], calibration)]
    first = specs[0]
    profile = get_profile(first.benchmark)
    instructions = instruction_budget(first.instructions)
    groups = _timing_groups(specs)
    warm: Optional[CacheHierarchy] = None
    trace: Optional[List[MicroOp]] = None
    if len(groups) > 1:
        generator = SyntheticTraceGenerator(profile, seed=first.seed)
        warm = CacheHierarchy(groups[0][0].hierarchy)
        generator.prewarm(warm)
        if instructions <= SHARED_TRACE_MAX_OPS:
            trace = list(islice(generator, instructions))
    histograms = histograms_enabled()
    results: List[Optional[SimulationResult]] = [None] * len(specs)
    for number, (config, indices) in enumerate(groups):
        group = [specs[i] for i in indices]
        run = partial(_run_group, group, config, calibration, warm,
                      number == len(groups) - 1, trace)
        for i, result in zip(indices, _instrumented(group, histograms, run)):
            results[i] = result
    return results  # type: ignore[return-value]


def _run_group(specs: Sequence[RunSpec], config: MachineConfig,
               calibration: Optional[PowerCalibration],
               warm: Optional[CacheHierarchy], last: bool,
               trace: Optional[List[MicroOp]],
               observers: List[List[CycleObserver]]
               ) -> List[SimulationResult]:
    """One timing group's pipeline: the first spec's policy drives,
    the others ride; results in spec order.  A copy of the task's
    ``warm`` hierarchy lives only as long as this run; the ``last``
    group takes the original."""
    hierarchy = warm if warm is None or last else warm.copy()
    first = specs[0]
    run = PausableRun(
        first.benchmark, first.policy, first.instructions, config=config,
        calibration=calibration, seed=first.seed, hierarchy=hierarchy,
        trace=trace, observers=observers[0],
        riders=[PolicyRider(make_policy(spec.policy), extra)
                for spec, extra in zip(specs[1:], observers[1:])])
    run.step()
    return run.results()


def _pool_entry(indexed: Tuple[int, List[RunSpec]]
                ) -> Tuple[int, List[SimulationResult], float]:
    index, specs = indexed
    start = time.perf_counter()
    with activate(_WORKER_CONTEXT):
        results = simulate_task(specs, _WORKER_CALIBRATION)
    return index, results, time.perf_counter() - start


# -- parent side ------------------------------------------------------------

ProgressFn = Callable[[RunReport], None]


def _report(progress: Optional[ProgressFn], specs: Sequence[RunSpec],
            seconds: float) -> None:
    """One :class:`RunReport` per spec of a task, each carrying the
    task's seconds and spec count."""
    if progress is not None:
        for spec in specs:
            progress(RunReport(spec, seconds, "run", len(specs)))


def execute_specs(specs: Sequence[RunSpec],
                  calibration: Optional[PowerCalibration] = None,
                  jobs: int = 1,
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimulationResult]:
    """Simulate every spec, ``jobs`` tasks at a time; results in spec
    order.

    The batch runs as the tasks of :func:`plan_tasks`, through
    :func:`simulate_task` on either path.  Falls back to a serial loop
    when ``jobs <= 1``, when the batch is a single task, or when the
    platform cannot start a process pool.
    """
    specs = list(specs)
    # resolve the default once, up front, so the serial loop and the
    # pool workers simulate with the same calibration object
    calibration = calibration or PowerCalibration()
    plan = plan_tasks(specs)
    tasks = [[specs[i] for i in indices] for indices in plan]
    pool = None
    if jobs > 1 and len(tasks) > 1:
        try:
            import multiprocessing
            pool = multiprocessing.Pool(
                processes=min(jobs, len(tasks)),
                initializer=_init_worker,
                # the active span context rides along so worker-side
                # journal events join the caller's trace
                initargs=(calibration, current_context()))
        except (ImportError, OSError, ValueError):
            pool = None
    done: List[Optional[List[SimulationResult]]] = [None] * len(tasks)
    if pool is None:
        for index, task in enumerate(tasks):
            start = time.perf_counter()
            done[index] = simulate_task(task, calibration)
            _report(progress, task, time.perf_counter() - start)
    else:
        try:
            for index, results, seconds in pool.imap_unordered(
                    _pool_entry, list(enumerate(tasks))):
                done[index] = results
                _report(progress, tasks[index], seconds)
        finally:
            pool.close()
            pool.join()
    by_spec: List[Optional[SimulationResult]] = [None] * len(specs)
    for indices, results in zip(plan, done):
        for i, result in zip(indices, results):  # type: ignore[arg-type]
            by_spec[i] = result
    return by_spec  # type: ignore[return-value]
