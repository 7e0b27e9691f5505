"""SimPoint-style interval sampling for long simulations.

The paper simulates 500 M committed instructions per benchmark after a
2 B-instruction fast-forward; cycle-accurate simulation at that scale
is exactly what this reproduction could not afford run-to-completion.
:class:`SampledRun` makes it affordable the way the SimPoint/SMARTS
line of work does:

* The instruction budget ``N`` is divided into ``K`` equal intervals
  (a "KxL" :class:`SampleSpec`).
* Within each interval, the leading ``interval - L`` micro-ops are
  **fast-forwarded functionally**: they touch the shared cache
  hierarchy (instruction line fetches, loads, stores) and train the
  shared branch predictor, but no pipeline cycles are simulated — this
  is the warm-up that keeps each measurement window from starting on
  cold microarchitectural state.
* The trailing ``L`` micro-ops of the interval run through a fresh
  cycle-accurate pipeline (sharing the warmed hierarchy/predictor),
  producing one per-window :class:`SimulationResult`.
* The ``K`` window results are combined into a cycle-weighted
  aggregate whose per-metric spread is summarised as a 95% Student-t
  confidence interval through :mod:`repro.analysis.variance`.

Because every window draws *exactly* ``L`` micro-ops through a
length-limited :class:`~repro.trace.stream.TraceStream`, interval
boundaries land on exact trace positions and the whole run is
deterministic — which is what lets a window boundary double as a
checkpoint: the snapshot is just (drawn count, hierarchy, predictor,
completed windows), and a resumed run replays the generator to the
drawn count and continues bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from ..frontend.branch_predictor import BranchPredictor
from ..memory.hierarchy import CacheHierarchy
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats
from ..power.budget import BlockPowers, PowerCalibration
from ..trace.stream import TraceStream
from ..workloads.profiles import get_profile
from ..workloads.synthetic import SyntheticTraceGenerator
from .checkpoint import replay_source
from .configs import baseline_config, instruction_budget
from .simulator import SimulationResult, assemble_run, build_result, \
    make_policy

__all__ = ["SampleSpec", "SampledRun", "aggregate_windows"]


@dataclass(frozen=True)
class SampleSpec:
    """A "KxL" sampling plan: K measurement windows of L instructions."""

    windows: int
    length: int

    def __post_init__(self) -> None:
        if self.windows < 2:
            raise ValueError(
                "sampling needs at least 2 windows (confidence "
                "intervals are undefined for one sample)")
        if self.length < 1:
            raise ValueError("window length must be positive")

    @classmethod
    def parse(cls, text: str) -> "SampleSpec":
        """Parse ``"8x2000"`` → 8 windows of 2000 instructions."""
        parts = str(text).lower().split("x")
        if len(parts) != 2:
            raise ValueError(
                f"bad sample spec {text!r}; expected <windows>x<length> "
                "like 10x5000")
        try:
            windows, length = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"bad sample spec {text!r}; expected <windows>x<length> "
                "like 10x5000") from None
        return cls(windows=windows, length=length)

    def __str__(self) -> str:
        return f"{self.windows}x{self.length}"

    @property
    def measured(self) -> int:
        """Instructions that are actually cycle-simulated."""
        return self.windows * self.length

    def validate(self, instructions: int) -> None:
        """Raise ``ValueError`` unless the plan fits ``instructions``."""
        interval = instructions // self.windows
        if self.length > interval:
            raise ValueError(
                f"sample {self} does not fit {instructions} "
                f"instructions: each of the {self.windows} intervals is "
                f"{interval} instructions, shorter than the "
                f"{self.length}-instruction window")

    def plan(self, instructions: int) -> List[Tuple[int, int]]:
        """Per-interval ``(fast_forward, simulate)`` micro-op counts.

        Intervals are ``instructions // windows`` long (the remainder
        extends the last interval's fast-forward); the measurement
        window sits at the *end* of its interval so the fast-forward
        doubles as its warm-up.
        """
        self.validate(instructions)
        interval = instructions // self.windows
        remainder = instructions - interval * self.windows
        plan = [(interval - self.length, self.length)
                for _ in range(self.windows)]
        if remainder:
            skip, length = plan[-1]
            plan[-1] = (skip + remainder, length)
        return plan


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _aggregate_stats(windows: List[SimulationResult]) -> SimStats:
    """Pool per-window :class:`SimStats` into one aggregate.

    Raw counters sum; per-window utilisation figures are cycle-weighted
    means; the predictor and cache figures come from the *last* window,
    whose shared-state totals already cover the whole run (hierarchy
    and predictor live across windows and fast-forwards).
    """
    stats = SimStats()
    total_cycles = sum(w.stats.cycles for w in windows if w.stats)
    for window in windows:
        ws = window.stats
        if ws is None:
            continue
        stats.cycles += ws.cycles
        stats.committed += ws.committed
        stats.fetched += ws.fetched
        stats.loads += ws.loads
        stats.stores += ws.stores
        stats.forwarded_loads += ws.forwarded_loads
        stats.mispredicts += ws.mispredicts
        stats.wrong_path_fetched += ws.wrong_path_fetched
        stats.wrong_path_squashed += ws.wrong_path_squashed
        stats.commit_class_counts.update(ws.commit_class_counts)
        if total_cycles:
            weight = ws.cycles / total_cycles
            stats.issue_ipc += weight * ws.issue_ipc
            stats.dcache_port_utilization += (
                weight * ws.dcache_port_utilization)
            stats.result_bus_utilization += (
                weight * ws.result_bus_utilization)
            stats.fetch_stall_fraction += weight * ws.fetch_stall_fraction
            for fu_class, util in ws.fu_utilization.items():
                stats.fu_utilization[fu_class] = (
                    stats.fu_utilization.get(fu_class, 0.0)
                    + weight * util)
    last = windows[-1].stats
    if last is not None:
        stats.mispredict_rate = last.mispredict_rate
        stats.cache_stats = last.cache_stats
    return stats


def aggregate_windows(benchmark: str, policy: str,
                      windows: List[SimulationResult],
                      sample: SampleSpec,
                      instructions: int) -> SimulationResult:
    """Weighted aggregate of per-window results, with 95% CIs.

    Power metrics are cycle-weighted (power is a per-cycle average, so
    a window that took longer carries more energy); IPC is pooled as
    total instructions over total cycles.  ``cycles`` is the run's
    estimated full-length cycle count (``instructions / pooled IPC``)
    so power-delay comparisons against full runs stay meaningful.
    """
    if not windows:
        raise ValueError("cannot aggregate zero sample windows")
    total_cycles = sum(w.cycles for w in windows)
    measured = sum(w.instructions for w in windows)
    ipc = measured / total_cycles if total_cycles else 0.0
    weights = [w.cycles / total_cycles if total_cycles else 0.0
               for w in windows]
    average_power = sum(w.average_power * wt
                        for w, wt in zip(windows, weights))
    base_power = sum(w.base_power * wt for w, wt in zip(windows, weights))
    total_saving = (1.0 - average_power / base_power) if base_power else 0.0
    families: Dict[str, float] = {}
    for window, wt in zip(windows, weights):
        for family, saving in window.family_savings.items():
            families[family] = families.get(family, 0.0) + wt * saving
    mode_cycles: Dict[int, int] = {}
    for window in windows:
        for mode, count in window.mode_cycles.items():
            mode_cycles[mode] = mode_cycles.get(mode, 0) + count
    # CIs across windows; import here so repro.analysis (which imports
    # the sim package) never sees a half-initialised sampling module
    from ..analysis.variance import confidence_interval
    confidence = {
        "ipc": confidence_interval([w.ipc for w in windows]),
        "average_power": confidence_interval(
            [w.average_power for w in windows]),
        "total_saving": confidence_interval(
            [w.total_saving for w in windows]),
    }
    return SimulationResult(
        benchmark=benchmark,
        policy=policy,
        instructions=instructions,
        cycles=int(round(instructions / ipc)) if ipc else 0,
        ipc=ipc,
        base_power=base_power,
        average_power=average_power,
        total_saving=total_saving,
        family_savings=families,
        stats=_aggregate_stats(windows),
        mode_cycles=mode_cycles,
        fu_toggles=sum(w.fu_toggles for w in windows),
        sample=str(sample),
        sampled_instructions=measured,
        confidence=confidence,
    )


# ---------------------------------------------------------------------------
# the sampled run
# ---------------------------------------------------------------------------

class SampledRun:
    """Fast-forward / simulate-window driver, checkpointable between
    windows.

    The microarchitectural state that persists across the whole run —
    cache hierarchy and branch predictor — is owned here and injected
    into each window's fresh pipeline; everything else (issue window,
    rename state, the gating policy) starts cold per window, which is
    the standard sampling warm-up compromise (caches/predictor dominate
    long-lived state by orders of magnitude).
    """

    kind = "sampled"

    def __init__(self, benchmark: str, policy: str = "dcg",
                 instructions: Optional[int] = None,
                 sample: Any = "10x1000", *,
                 config: Optional[MachineConfig] = None,
                 calibration: Optional[PowerCalibration] = None,
                 seed: Optional[int] = None,
                 prewarm: bool = True) -> None:
        profile = get_profile(benchmark)
        self.benchmark = profile.name
        self.policy_name = policy
        self.instructions = instruction_budget(instructions)
        self.sample = (SampleSpec.parse(sample)
                       if isinstance(sample, str) else sample)
        self.seed = seed
        self.config = config or baseline_config()
        self.calibration = calibration or PowerCalibration()
        self._plan = self.sample.plan(self.instructions)
        generator = SyntheticTraceGenerator(profile, seed=seed)
        self._source = iter(generator)
        self._drawn = 0
        self.hierarchy = CacheHierarchy(self.config.hierarchy)
        self.predictor = BranchPredictor(
            l1_entries=self.config.bpred_l1_entries,
            l2_entries=self.config.bpred_l2_entries,
            history_bits=self.config.bpred_history_bits,
            btb_entries=self.config.btb_entries,
            btb_assoc=self.config.btb_assoc,
            ras_depth=self.config.ras_depth)
        if prewarm:
            # same working-set install a full run gets before cycle 0
            generator.prewarm(self.hierarchy)
        self.windows: List[SimulationResult] = []
        self.next_window = 0

    # -- functional fast-forward ------------------------------------------

    def _fast_forward(self, count: int) -> None:
        """Consume ``count`` micro-ops, warming caches and predictor.

        Mirrors what the pipeline's fetch/execute stages touch — one
        I-cache fetch per line change, a D-cache access per memory op,
        a predict+resolve per branch — without simulating any cycles.
        """
        hierarchy = self.hierarchy
        fetch = hierarchy.fetch
        load = hierarchy.load
        store = hierarchy.store
        predict = self.predictor.predict
        resolve = self.predictor.resolve
        line_bytes = hierarchy.l1i.line_bytes
        last_line = -1
        drawn = 0
        for op in islice(self._source, count):
            drawn += 1
            pc = op.pc
            line = pc // line_bytes
            if line != last_line:
                fetch(pc)
                last_line = line
            if op.is_load:
                load(op.mem_addr)
            elif op.is_store:
                store(op.mem_addr)
            elif op.is_branch:
                taken, target = predict(pc)
                resolve(pc, taken, target, op.taken, op.target)
        self._drawn += drawn

    # -- windows ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.next_window >= self.sample.windows

    @property
    def progress(self) -> Dict[str, int]:
        return {"window": self.next_window, "windows": self.sample.windows}

    def run_window(self) -> SimulationResult:
        """Fast-forward to, then cycle-simulate, the next window."""
        if self.done:
            raise RuntimeError("all sample windows already simulated")
        skip, length = self._plan[self.next_window]
        self._fast_forward(skip)
        # the window draws exactly ``length`` ops through its own
        # limited stream, so interval boundaries are exact positions
        stream = TraceStream(self._source, limit=length)
        pipeline, accountant = assemble_run(
            self.config, stream, make_policy(self.policy_name),
            BlockPowers(self.config, self.calibration),
            hierarchy=self.hierarchy, predictor=self.predictor)
        stats = pipeline.run(max_instructions=length)
        self._drawn += stream.source_drawn
        result = build_result(self.benchmark, pipeline.policy, accountant,
                              stats)
        self.windows.append(result)
        self.next_window += 1
        return result

    def step(self) -> None:
        """One window: the driver's step (see
        :func:`~repro.sim.checkpoint.run_spec`)."""
        self.run_window()

    def run(self) -> SimulationResult:
        """Simulate every remaining window; the weighted aggregate."""
        while not self.done:
            self.run_window()
        return self.result()

    def result(self) -> SimulationResult:
        return aggregate_windows(self.benchmark, self.policy_name,
                                 self.windows, self.sample,
                                 self.instructions)

    # -- checkpointing ----------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Picklable snapshot at a window boundary."""
        return {
            "benchmark": self.benchmark,
            "policy_name": self.policy_name,
            "instructions": self.instructions,
            "sample": str(self.sample),
            "seed": self.seed,
            "config": self.config,
            "calibration": self.calibration,
            "drawn": self._drawn,
            "hierarchy": self.hierarchy,
            "predictor": self.predictor,
            "windows": list(self.windows),
            "next_window": self.next_window,
        }

    @classmethod
    def resume(cls, state: Dict[str, Any]) -> "SampledRun":
        """Rebuild from :meth:`state`; continues bit-identically.

        The generator replay advances only the trace RNG — the warmed
        hierarchy/predictor come from the snapshot, so replay must not
        (and does not) touch them.
        """
        run = cls.__new__(cls)
        run.benchmark = state["benchmark"]
        run.policy_name = state["policy_name"]
        run.instructions = state["instructions"]
        run.sample = SampleSpec.parse(state["sample"])
        run.seed = state["seed"]
        run.config = state["config"]
        run.calibration = state["calibration"]
        run._plan = run.sample.plan(run.instructions)
        run.hierarchy = state["hierarchy"]
        run.predictor = state["predictor"]
        run.windows = list(state["windows"])
        run.next_window = state["next_window"]
        run._source = replay_source(run.benchmark, run.seed, state["drawn"])
        run._drawn = state["drawn"]
        return run
