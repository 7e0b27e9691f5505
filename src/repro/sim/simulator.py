"""High-level simulation facade.

:class:`Simulator` wires together a workload, the timing pipeline, a
gating policy, and the power accountant, and returns a single
:class:`SimulationResult` carrying both performance and power numbers —
everything §5's figures are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from ..core.dcg import DCGPolicy
from ..core.interface import GatingPolicy, NoGatingPolicy
from ..core.plb import PLBPolicy
from ..frontend.branch_predictor import BranchPredictor
from ..memory.hierarchy import CacheHierarchy
from ..pipeline.config import MachineConfig
from ..pipeline.core import Pipeline
from ..pipeline.stats import SimStats
from ..pipeline.usage import CycleObserver
from ..power.accounting import PowerAccountant
from ..power.budget import BlockPowers, PowerCalibration
from ..trace.stream import TraceStream
from ..trace.uop import MicroOp
from ..workloads.profiles import BenchmarkProfile, get_profile
from ..workloads.synthetic import SyntheticTraceGenerator
from .configs import baseline_config, instruction_budget

__all__ = ["SimulationResult", "Simulator", "assemble_run", "build_result",
           "make_policy", "BUILTIN_POLICIES"]


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

    Shared by :class:`Simulator`, the checkpointable
    :class:`~repro.sim.checkpoint.PausableRun`, and the per-window
    results of :class:`~repro.sim.sampling.SampledRun`, so all three
    produce byte-identical results from identical pipeline state.
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


def assemble_run(config: MachineConfig, stream: TraceStream,
                 policy: GatingPolicy, blocks: BlockPowers, *,
                 hierarchy: Optional[CacheHierarchy] = None,
                 predictor: Optional[BranchPredictor] = None,
                 prewarm: Optional[SyntheticTraceGenerator] = None,
                 observers: Iterable[CycleObserver] = ()
                 ) -> Tuple[Pipeline, PowerAccountant]:
    """Wire a stream, policy and power accountant into a ready pipeline.

    The one place a run is assembled — :class:`Simulator`, the
    checkpointable :class:`~repro.sim.checkpoint.PausableRun` and each
    :class:`~repro.sim.sampling.SampledRun` window all come through
    here.  ``hierarchy``/``predictor`` share warmed state across
    pipelines (sampling windows); ``prewarm`` installs a synthetic
    workload's working set before cycle 0; ``observers`` are extra
    per-cycle observers attached after the accountant.
    """
    pipeline = Pipeline(config, stream, policy, hierarchy=hierarchy,
                        predictor=predictor)
    if prewarm is not None:
        prewarm.prewarm(pipeline.hierarchy)
    accountant = PowerAccountant(blocks)
    pipeline.add_observer(accountant)
    for observer in observers:
        pipeline.add_observer(observer)
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

        ``observers`` are extra per-cycle observers attached after the
        power accountant — the opt-in histograms hook.
        """
        profile = (get_profile(benchmark) if isinstance(benchmark, str)
                   else benchmark)
        count = instruction_budget(instructions)
        generator = SyntheticTraceGenerator(profile, seed=seed)
        stream = TraceStream(iter(generator), limit=count)
        return self._run(profile.name, stream, policy, count,
                         prewarm_source=generator if prewarm else None,
                         observers=observers)

    def run_trace(self, source: Iterable[MicroOp], policy:
                  Union[str, GatingPolicy] = "base",
                  instructions: Optional[int] = None,
                  name: str = "trace") -> SimulationResult:
        """Simulate an arbitrary micro-op trace (e.g. from the ISA
        functional tracer) under one policy."""
        stream = TraceStream(source, limit=instructions)
        return self._run(name, stream, policy, instructions)

    def _run(self, name: str, stream: TraceStream,
             policy: Union[str, GatingPolicy],
             instructions: Optional[int],
             prewarm_source: Optional[SyntheticTraceGenerator] = None,
             observers: Optional[Iterable] = None) -> SimulationResult:
        policy_obj = make_policy(policy) if isinstance(policy, str) else policy
        pipeline, accountant = assemble_run(
            self.config, stream, policy_obj, self.blocks,
            prewarm=prewarm_source, observers=observers or ())
        stats = pipeline.run(max_instructions=instructions)
        return build_result(name, policy_obj, accountant, stats)
