"""Multiprocessing fan-out for the experiment grid.

The (config, benchmark, policy) grid behind the paper's figures is
embarrassingly parallel: every run is an independent, seeded, pure
computation.  :func:`execute_specs` distributes a batch of
:class:`RunSpec` across a process pool and returns results in
submission order, so the output is byte-identical to a serial run no
matter how many workers raced to produce it.

Worker count comes from the ``--jobs`` CLI flag or the ``REPRO_JOBS``
environment variable; ``jobs=1`` (the default) and any platform where a
pool cannot be created fall back to a plain serial loop.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.events import get_journal
from ..obs.histograms import CycleHistograms, histograms_enabled
from ..obs.tracing import SpanContext, activate, current_context, span
from ..power.budget import PowerCalibration
from .configs import config_from_tag
from .simulator import SimulationResult, Simulator

__all__ = ["RunSpec", "RunReport", "default_jobs", "execute_specs",
           "JOBS_ENV_VAR"]

#: environment variable naming the default worker count
JOBS_ENV_VAR = "REPRO_JOBS"


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

    ``seconds`` is the wall-clock of the unit actually measured.  For
    local runs that is this spec alone (``batch_size == 1``); for
    remote batches one HTTP round-trip serves many specs, so every
    spec's report carries the whole batch's elapsed time plus the batch
    size — the caller can show an honest total instead of a fabricated
    per-spec average.
    """

    spec: RunSpec
    seconds: float
    source: str                    #: "run" | "memory" | "disk" | "remote"
    batch_size: int = 1            #: specs sharing this measurement

    @property
    def instructions_per_second(self) -> float:
        # cache hits can report sub-resolution timings; clamp to the
        # timer's practical resolution so a progress line never claims
        # a misleading "0 instr/s"
        return self.spec.instructions / max(self.seconds, 1e-9)


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
_WORKER_SIMULATORS = {}


def _init_worker(calibration: PowerCalibration,
                 context: Optional[SpanContext] = None) -> None:
    global _WORKER_CALIBRATION, _WORKER_CONTEXT
    _WORKER_CALIBRATION = calibration
    _WORKER_CONTEXT = context
    _WORKER_SIMULATORS.clear()


def _worker_simulator(tag: str) -> Simulator:
    if tag not in _WORKER_SIMULATORS:
        _WORKER_SIMULATORS[tag] = Simulator(
            config_from_tag(tag), _WORKER_CALIBRATION)
    return _WORKER_SIMULATORS[tag]


def _checkpointed(spec: RunSpec) -> bool:
    """True when a plain spec runs in checkpointed chunks (a store is
    configured and the run spans at least two chunks)."""
    from .checkpoint import DEFAULT_CHUNK, CheckpointStore
    return (not getattr(spec, "sample", None)
            and CheckpointStore().enabled
            and spec.instructions >= 2 * DEFAULT_CHUNK)


def _run_spec_inner(spec: RunSpec,
                    calibration: Optional[PowerCalibration],
                    simulator: Optional[Simulator],
                    stop: Optional[object],
                    observer: Optional[CycleHistograms]) -> SimulationResult:
    """Dispatch one spec to the right execution strategy.

    Sampled specs go through :func:`~repro.sim.sampling.run_sampled_spec`
    (interval sampling + window-boundary checkpoints); long plain runs
    with a checkpoint store configured go through
    :func:`~repro.sim.checkpoint.run_resumable_spec` (chunked with
    snapshots between chunks); everything else takes the original
    straight-through path.  Imports are deferred so the common path —
    and the package import graph — never touches the sampling module.
    """
    # the pool path passes a prebuilt Simulator but no calibration;
    # recover it so checkpoint keys and power numbers stay consistent
    if calibration is None and simulator is not None:
        calibration = simulator.calibration
    if getattr(spec, "sample", None):
        from .sampling import run_sampled_spec
        return run_sampled_spec(spec, calibration, stop=stop)
    if _checkpointed(spec):
        from .checkpoint import run_resumable_spec
        return run_resumable_spec(spec, calibration, stop=stop)
    sim = simulator or Simulator(config_from_tag(spec.tag), calibration)
    return sim.run_benchmark(spec.benchmark, spec.policy,
                             instructions=spec.instructions,
                             seed=spec.seed,
                             observers=[observer] if observer
                             else None)


def simulate_spec(spec: RunSpec,
                  calibration: Optional[PowerCalibration] = None,
                  simulator: Optional[Simulator] = None,
                  stop: Optional[object] = None) -> SimulationResult:
    """Run one grid cell from scratch (no caching).

    The single sim-level observability chokepoint: with a journal
    configured it runs inside a ``sim`` span and emits ``sim.start`` /
    ``sim.finish`` (or ``sim.error``) events; with ``REPRO_HISTOGRAMS``
    set it attaches a :class:`~repro.obs.histograms.CycleHistograms` and
    emits it as a ``sim.histograms`` event (straight-through runs only;
    sampled and checkpointed runs emit none).  With neither,
    the original zero-instrumentation path runs.

    ``stop`` is an optional ``threading.Event``-like object consulted
    by the sampled/checkpointed strategies at window/chunk boundaries;
    when it fires mid-run the state is snapshotted and
    :class:`~repro.sim.checkpoint.SimulationInterrupted` propagates.
    """
    journal = get_journal()
    # the histograms hook a single pipeline's observer list, so they
    # only apply to the straight-through strategy: a sampled or
    # checkpointed run emits no ``sim.histograms`` rather than an empty one
    wanted = (histograms_enabled() and not getattr(spec, "sample", None)
              and not _checkpointed(spec))
    if not journal.enabled and not wanted:
        return _run_spec_inner(spec, calibration, simulator, stop, None)
    ident = {"benchmark": spec.benchmark, "policy": spec.policy,
             "tag": spec.tag}
    with span("sim", **ident):
        journal.emit("sim.start", instructions=spec.instructions,
                     seed=spec.seed, sample=getattr(spec, "sample", None),
                     **ident)
        histograms = CycleHistograms() if wanted else None
        start = time.perf_counter()
        try:
            result = _run_spec_inner(spec, calibration, simulator, stop,
                                     histograms)
        except Exception as exc:
            journal.emit("sim.error",
                         seconds=time.perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}", **ident)
            raise
        journal.emit("sim.finish", seconds=time.perf_counter() - start,
                     cycles=result.cycles,
                     instructions=result.instructions,
                     ipc=round(result.ipc, 4),
                     total_saving=round(result.total_saving, 6), **ident)
        if histograms is not None:
            journal.emit("sim.histograms", **ident, **histograms.summary())
    return result


def _pool_entry(indexed: Tuple[int, RunSpec]
                ) -> Tuple[int, SimulationResult, float]:
    index, spec = indexed
    start = time.perf_counter()
    with activate(_WORKER_CONTEXT):
        result = simulate_spec(spec, simulator=_worker_simulator(spec.tag))
    return index, result, time.perf_counter() - start


# -- parent side ------------------------------------------------------------

ProgressFn = Callable[[RunReport], None]


def _execute_serial(specs: Sequence[RunSpec],
                    calibration: Optional[PowerCalibration],
                    progress: Optional[ProgressFn]) -> List[SimulationResult]:
    simulators = {}
    results: List[SimulationResult] = []
    for spec in specs:
        if spec.tag not in simulators:
            simulators[spec.tag] = Simulator(
                config_from_tag(spec.tag), calibration)
        start = time.perf_counter()
        result = simulate_spec(spec, simulator=simulators[spec.tag])
        if progress is not None:
            progress(RunReport(spec, time.perf_counter() - start, "run"))
        results.append(result)
    return results


def execute_specs(specs: Sequence[RunSpec],
                  calibration: Optional[PowerCalibration] = None,
                  jobs: int = 1,
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimulationResult]:
    """Simulate every spec, ``jobs`` at a time; results in spec order.

    Falls back to a serial loop when ``jobs <= 1``, when the batch is
    a single run, or when the platform cannot start a process pool.
    """
    specs = list(specs)
    # resolve the default once, up front, so the serial loop and the
    # pool workers build simulators from the same calibration object —
    # previously only the pool path substituted the default
    calibration = calibration or PowerCalibration()
    if jobs <= 1 or len(specs) <= 1:
        return _execute_serial(specs, calibration, progress)
    try:
        import multiprocessing
        pool = multiprocessing.Pool(
            processes=min(jobs, len(specs)),
            initializer=_init_worker,
            # the active span context rides along so worker-side journal
            # events join the caller's trace
            initargs=(calibration, current_context()))
    except (ImportError, OSError, ValueError):
        return _execute_serial(specs, calibration, progress)
    results: List[Optional[SimulationResult]] = [None] * len(specs)
    try:
        for index, result, seconds in pool.imap_unordered(
                _pool_entry, list(enumerate(specs))):
            results[index] = result
            if progress is not None:
                progress(RunReport(specs[index], seconds, "run"))
    finally:
        pool.close()
        pool.join()
    return results  # type: ignore[return-value]
