"""High-level simulation facade and the parts every run is built from.

:class:`Simulator` runs (workload, policy) pairs on one machine and
returns a :class:`SimulationResult` carrying both performance and power
numbers — everything §5's figures are computed from.  Its
``run_benchmark`` drives a :class:`~repro.sim.checkpoint.PausableRun`,
the same plain run :func:`~repro.sim.checkpoint.run_spec` steps;
:func:`assemble_run` wires every pipeline and :func:`build_result` reads
every result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (Callable, Dict, Iterable, Optional, Sequence, Tuple,
                    Union)

from ..core.dcg import DCGPolicy
from ..core.interface import GateDecision, GatingPolicy, NoGatingPolicy
from ..core.plb import PLBPolicy
from ..frontend.branch_predictor import BranchPredictor
from ..memory.hierarchy import CacheHierarchy
from ..pipeline.config import MachineConfig
from ..pipeline.core import Pipeline
from ..pipeline.stats import SimStats
from ..pipeline.usage import CycleObserver, CycleUsage
from ..power.accounting import PowerAccountant
from ..power.budget import BlockPowers, PowerCalibration
from ..trace.stream import TraceStream
from ..trace.uop import MicroOp
from ..workloads.profiles import BenchmarkProfile
from ..workloads.synthetic import SyntheticTraceGenerator
from .configs import baseline_config

__all__ = ["PolicyRider", "SimulationResult", "Simulator", "assemble_run",
           "build_result", "make_policy", "timing_neutral",
           "BUILTIN_POLICIES"]


# kept only because e2ebench/workloads.py imports it to label its reports
def resolve_backend() -> str:
    return "array"


#: built-in policy name -> factory: ``dcg+iq`` is DCG composed with
#: [6]'s deterministic issue-queue gating
_POLICY_FACTORIES: Dict[str, Callable[[], GatingPolicy]] = {
    "base": NoGatingPolicy,
    "dcg": DCGPolicy,
    "dcg-delayed-store": partial(DCGPolicy, store_policy="delayed"),
    "dcg+iq": partial(DCGPolicy, gate_issue_queue=True),
    "plb-orig": partial(PLBPolicy, extended=False),
    "plb-ext": partial(PLBPolicy, extended=True),
}

#: policy names :func:`make_policy` understands; these are reserved as
#: cache keys and may not be rebound to custom policy factories
BUILTIN_POLICIES = tuple(_POLICY_FACTORIES)


@dataclass
class SimulationResult:
    """Outcome of one (workload, policy) simulation."""

    benchmark: str
    policy: str
    instructions: int
    cycles: int
    ipc: float
    base_power: float              #: watts of the no-gating machine
    average_power: float           #: watts under the policy
    total_saving: float            #: fraction of total power saved
    family_savings: Dict[str, float] = field(default_factory=dict)
    stats: Optional[SimStats] = None
    mode_cycles: Dict[int, int] = field(default_factory=dict)  #: PLB only
    fu_toggles: int = 0                                        #: DCG only
    #: "KxL" when this result is a sampled-run aggregate, else None
    sample: Optional[str] = None
    #: instructions actually cycle-simulated (== ``instructions`` for a
    #: full run; K*L for a sampled one)
    sampled_instructions: int = 0
    #: per-metric 95% confidence intervals across sample windows,
    #: e.g. ``{"total_saving": (lo, hi)}``; empty for full runs
    confidence: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def power_delay(self) -> float:
        """Average power x cycle count (relative units)."""
        return self.average_power * self.cycles

    def power_delay_saving(self, base: "SimulationResult") -> float:
        """Power-delay saving vs a base run (Fig 11's metric)."""
        base_pd = base.base_power * base.cycles
        return 1.0 - self.power_delay / base_pd

    def performance_relative(self, base: "SimulationResult") -> float:
        """This run's performance as a fraction of the base run's."""
        return base.cycles / self.cycles if self.cycles else 0.0


def build_result(name: str, policy_obj: GatingPolicy,
                 accountant: PowerAccountant,
                 stats: SimStats) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a finished pipeline.

    Shared by the plain :class:`~repro.sim.checkpoint.PausableRun`
    (which ``Simulator.run_benchmark`` drives), the per-window results
    of :class:`~repro.sim.sampling.SampledRun`, and
    ``Simulator.run_trace``, so all produce byte-identical results from
    identical pipeline state.
    """
    family_savings = {
        fam: accountant.family_saving(fam)
        for fam in accountant.families}
    family_savings["exec_units"] = accountant.exec_units_saving()
    return SimulationResult(
        benchmark=name,
        policy=policy_obj.name,
        instructions=stats.committed,
        cycles=stats.cycles,
        ipc=stats.ipc,
        base_power=accountant.base_power,
        average_power=accountant.average_power,
        total_saving=accountant.total_saving_fraction,
        family_savings=family_savings,
        stats=stats,
        **policy_obj.result_fields(),
    )


def make_policy(name: str) -> GatingPolicy:
    """A fresh policy object for one of :data:`BUILTIN_POLICIES`."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}") from None
    return factory()


def timing_neutral(policy: GatingPolicy, config: MachineConfig) -> bool:
    """True when ``policy``, bound to ``config``, cannot change the
    machine's timing: its constraints are static and are the full
    machine's — no disabled unit, no store delay, full widths, ports
    and buses.

    Such a policy only reads the cycles the machine runs anyway (§3),
    so it can ride another neutral policy's pipeline as a
    :class:`PolicyRider`.  Base, DCG and ``dcg+iq`` are neutral;
    DCG's delayed-store variant and PLB are not.
    """
    if not policy.constraints_static:
        return False
    cons = policy.constraints(0)
    return (cons.issue_width == config.issue_width
            and cons.rename_width == config.decode_width
            and cons.dcache_ports == config.dcache_ports
            and cons.result_buses == config.result_buses
            and not any(cons.disabled_fus.values())
            and not cons.store_extra_delay)


class PolicyRider(CycleObserver):
    """A timing-neutral policy riding another policy's pipeline.

    Each cycle it runs its own policy on the cycle's usage and feeds
    the policy's own decision to its own power accountant, then to its
    ``observers`` — exactly what a pipeline of its own would have done,
    since neither policy changes the cycles both see.
    :func:`assemble_run` binds the policy and builds the accountant.
    """

    def __init__(self, policy: GatingPolicy,
                 observers: Iterable[CycleObserver] = ()) -> None:
        self.policy = policy
        self.observers = list(observers)
        self.accountant: Optional[PowerAccountant] = None

    def observe(self, usage: CycleUsage, decision: GateDecision) -> None:
        decision = self.policy.observe(usage)
        for observer in self.observers:
            observer.observe(usage, decision)

    def observe_span(self, usage: CycleUsage, decision: GateDecision,
                     n: int) -> None:
        decision = self.policy.observe_span(usage, n)
        for observer in self.observers:
            observer.observe_span(usage, decision, n)


def assemble_run(config: MachineConfig, stream: TraceStream,
                 policy: GatingPolicy, blocks: BlockPowers, *,
                 hierarchy: Optional[CacheHierarchy] = None,
                 predictor: Optional[BranchPredictor] = None,
                 prewarm: Optional[SyntheticTraceGenerator] = None,
                 observers: Iterable[CycleObserver] = (),
                 riders: Sequence[PolicyRider] = ()
                 ) -> Tuple[Pipeline, PowerAccountant]:
    """Wire a stream, policy and power accountant into a ready pipeline.

    The one place a run is assembled — the plain
    :class:`~repro.sim.checkpoint.PausableRun`, each
    :class:`~repro.sim.sampling.SampledRun` window and
    ``Simulator.run_trace`` all come through here.
    ``hierarchy``/``predictor`` share warmed state across
    pipelines (sampling windows, a task's timing groups); ``prewarm``
    installs a synthetic workload's working set before cycle 0;
    ``observers`` are extra per-cycle observers attached after the
    accountant.  ``riders`` are further policies sharing the pipeline,
    each bound here and given its own accountant; they attach last,
    and they and ``policy`` must all be :func:`timing_neutral`.
    """
    pipeline = Pipeline(config, stream, policy, hierarchy=hierarchy,
                        predictor=predictor)
    if prewarm is not None:
        prewarm.prewarm(pipeline.hierarchy)
    accountant = PowerAccountant(blocks)
    pipeline.add_observer(accountant)
    for observer in observers:
        pipeline.add_observer(observer)
    for rider in riders:
        rider.policy.bind(config)
        for neutral in (policy, rider.policy):
            if not timing_neutral(neutral, config):
                raise ValueError(
                    f"policy {neutral.name!r} changes the machine's "
                    f"timing, so it cannot share a pipeline")
        rider.accountant = PowerAccountant(blocks)
        rider.observers.insert(0, rider.accountant)
        pipeline.add_observer(rider)
    return pipeline, accountant


class Simulator:
    """Runs (workload, policy) pairs on a fixed machine configuration.

    Parameters
    ----------
    config:
        Machine configuration; Table 1 baseline by default.
    calibration:
        Power-model calibration; Wattch-era defaults.
    """

    def __init__(self, config: Optional[MachineConfig] = None,
                 calibration: Optional[PowerCalibration] = None) -> None:
        self.config = config or baseline_config()
        self.calibration = calibration or PowerCalibration()
        self.blocks = BlockPowers(self.config, self.calibration)

    def run_benchmark(self, benchmark: Union[str, BenchmarkProfile],
                      policy: Union[str, GatingPolicy] = "base",
                      instructions: Optional[int] = None,
                      seed: Optional[int] = None,
                      prewarm: bool = True,
                      observers: Optional[Iterable[CycleObserver]] = None
                      ) -> SimulationResult:
        """Simulate one SPEC2000-like benchmark under one policy.

        Drives a :class:`~repro.sim.checkpoint.PausableRun` on this
        simulator's machine and power model straight to the end.
        ``observers`` are extra per-cycle observers attached after the
        power accountant — the opt-in histograms hook.
        """
        # deferred: the checkpoint module builds on this one
        from .checkpoint import PausableRun
        run = PausableRun(benchmark, policy, instructions,
                          config=self.config, calibration=self.calibration,
                          seed=seed, prewarm=prewarm, blocks=self.blocks,
                          observers=observers or ())
        run.step()
        return run.result()

    def run_trace(self, source: Iterable[MicroOp], policy:
                  Union[str, GatingPolicy] = "base",
                  instructions: Optional[int] = None,
                  name: str = "trace") -> SimulationResult:
        """Simulate an arbitrary micro-op trace (e.g. from the ISA
        functional tracer) under one policy."""
        policy_obj = make_policy(policy) if isinstance(policy, str) else policy
        pipeline, accountant = assemble_run(
            self.config, TraceStream(source, limit=instructions),
            policy_obj, self.blocks)
        stats = pipeline.run(max_instructions=instructions)
        return build_result(name, policy_obj, accountant, stats)
