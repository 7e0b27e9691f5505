"""Perf-regression harness for the cycle simulator.

Times the per-cycle hot path (``Pipeline._step`` and everything it
calls) end to end through the public :class:`~repro.sim.simulator`
facade, on a pinned set of (benchmark, policy) cases chosen to cover
the three hot-path regimes: no gating (``base``), DCG's per-cycle grant
calendar + verification (``dcg``), and PLB's mode machinery with the
extended gating set (``plb-ext``).

The output is a JSON report (``BENCH_<tag>.json``) with one record per
case: simulated cycles, committed instructions, wall-clock seconds, and
the derived cycles/sec and instr/sec rates.  Reports are intended to be
committed under ``benchmarks/perf/`` so the repo accumulates a perf
trajectory; CI runs the harness on a tiny budget and validates the
report shape (not absolute speed — CI machines vary too much for that).

An opt-in cProfile hook (``repro bench-perf --profile``, or the
``REPRO_PROFILE`` environment variable) prints the hottest functions of
one case instead of timing the full matrix.
"""

from __future__ import annotations

import cProfile
import io
import json
import math
import platform
import pstats
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..pipeline.config import MachineConfig
from ..sim.simulator import Simulator

__all__ = ["BenchCase", "DEFAULT_CASES", "SCHEMA_VERSION", "run_bench",
           "profile_case", "validate_report", "write_report"]

#: bump when the report layout changes; consumers check this
SCHEMA_VERSION = 1

#: default per-case instruction budget for local runs
DEFAULT_INSTRUCTIONS = 20_000

#: fraction of the budget spent on an untimed warm-up run per case
_WARMUP_FRACTION = 0.25


@dataclass(frozen=True)
class BenchCase:
    """One pinned (benchmark, policy) timing case.

    ``sample`` (a "KxL" plan) times the interval-sampling driver
    instead of the full-run facade — the case the long-run path's
    fast-forward throughput lives or dies by.
    """

    benchmark: str
    policy: str
    sample: Optional[str] = None

    @property
    def label(self) -> str:
        base = f"{self.benchmark}/{self.policy}"
        return f"{base}@{self.sample}" if self.sample else base


#: the pinned matrix: one integer and one FP workload, across the
#: three structurally different policy hot paths, plus the sampled
#: long-run driver (fast-forward + windowed cycle simulation)
DEFAULT_CASES: Tuple[BenchCase, ...] = (
    BenchCase("gzip", "base"),
    BenchCase("gzip", "dcg"),
    BenchCase("gzip", "plb-ext"),
    BenchCase("applu", "base"),
    BenchCase("applu", "dcg"),
    BenchCase("applu", "plb-ext"),
    BenchCase("gzip", "dcg", sample="3x300"),
)


def _run_case(sim: Simulator, case: BenchCase, instructions: int):
    if case.sample:
        from ..sim.sampling import SampledRun
        return SampledRun(case.benchmark, case.policy, instructions,
                          case.sample, config=sim.config,
                          calibration=sim.calibration).run()
    return sim.run_benchmark(case.benchmark, case.policy,
                             instructions=instructions)


def _time_case(sim: Simulator, case: BenchCase,
               instructions: int, repeats: int = 1) -> Dict[str, object]:
    warmup = max(1, int(instructions * _WARMUP_FRACTION))
    # warm-up always uses the full-run facade: a "KxL" plan generally
    # does not fit a quarter budget, and the point is process warm-up
    sim.run_benchmark(case.benchmark, case.policy, instructions=warmup)
    # best-of-N timing (the simulator is deterministic, so every repeat
    # does identical work): the minimum is the standard estimator for
    # the noise-free run time on a shared machine
    seconds = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = _run_case(sim, case, instructions)
        elapsed = time.perf_counter() - start
        if seconds is None or elapsed < seconds:
            seconds = elapsed
    # a zero-duration clock read would make the rates meaningless;
    # clamp to the timer's practical resolution instead of dividing by 0
    seconds = max(seconds, 1e-9)
    record: Dict[str, object] = {
        "benchmark": case.benchmark,
        "policy": case.policy,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "seconds": seconds,
        "cycles_per_second": result.cycles / seconds,
        "instructions_per_second": result.instructions / seconds,
    }
    if case.sample:
        record["sample"] = case.sample
        record["sampled_instructions"] = result.sampled_instructions
    return record


def run_bench(instructions: int = DEFAULT_INSTRUCTIONS,
              cases: Sequence[BenchCase] = DEFAULT_CASES,
              tag: str = "local",
              config: Optional[MachineConfig] = None,
              progress=None,
              repeats: int = 1) -> Dict[str, object]:
    """Time every case and return the report dict.

    ``progress``, when given, is called with each finished case record
    (the CLI uses it for per-case stderr lines).  ``repeats`` times each
    case that many times and keeps the fastest run.
    """
    if instructions <= 0:
        raise ValueError("instructions must be positive")
    if not cases:
        raise ValueError("at least one bench case is required")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    sim = Simulator(config)
    results: List[Dict[str, object]] = []
    for case in cases:
        record = _time_case(sim, case, instructions, repeats)
        results.append(record)
        if progress is not None:
            progress(record)
    total_cycles = sum(r["cycles"] for r in results)
    total_seconds = sum(r["seconds"] for r in results)
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "instructions_per_case": instructions,
        "results": results,
        "totals": {
            "cases": len(results),
            "cycles": total_cycles,
            "seconds": total_seconds,
            "cycles_per_second": total_cycles / max(total_seconds, 1e-9),
        },
    }
    return report


def profile_case(case: BenchCase = DEFAULT_CASES[1],
                 instructions: int = DEFAULT_INSTRUCTIONS,
                 top: int = 25,
                 config: Optional[MachineConfig] = None) -> str:
    """cProfile one case and return the hottest-functions table.

    A sampled case profiles the sampling driver, as :func:`run_bench`
    times it.
    """
    sim = Simulator(config)
    # warm imports/caches outside the profile window
    sim.run_benchmark(case.benchmark, case.policy, instructions=1_000)
    profiler = cProfile.Profile()
    profiler.enable()
    _run_case(sim, case, instructions)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


_REQUIRED_RESULT_KEYS = ("benchmark", "policy", "instructions", "cycles",
                         "seconds", "cycles_per_second",
                         "instructions_per_second")


def validate_report(report: Dict[str, object]) -> None:
    """Raise ``ValueError`` when a report is structurally malformed.

    CI's bench smoke job calls this so a broken harness fails the build
    even though absolute speed is never asserted.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be a dict")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}")
    budget = report.get("instructions_per_case")
    if not isinstance(budget, int) or budget <= 0:
        raise ValueError(
            f"instructions_per_case must be a positive int, got {budget!r}")
    results = report.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("report has no results")
    for record in results:
        for key in _REQUIRED_RESULT_KEYS:
            if key not in record:
                raise ValueError(f"result record is missing {key!r}")
        if record["cycles"] <= 0 or record["instructions"] <= 0:
            raise ValueError(
                f"{record.get('benchmark')}/{record.get('policy')}: "
                "non-positive cycles or instructions")
        if record["seconds"] <= 0:
            raise ValueError(
                f"{record.get('benchmark')}/{record.get('policy')}: "
                "non-positive wall-clock seconds")
    totals = report.get("totals")
    if not isinstance(totals, dict) or totals.get("cases") != len(results):
        raise ValueError("totals.cases does not match results")
    # cross-check the derived totals against the per-case sums so a
    # totals-computation bug cannot slip through CI's shape check
    cycle_sum = sum(r["cycles"] for r in results)
    if totals.get("cycles") != cycle_sum:
        raise ValueError(
            f"totals.cycles {totals.get('cycles')!r} does not match "
            f"per-case sum {cycle_sum}")
    second_sum = sum(r["seconds"] for r in results)
    total_seconds = totals.get("seconds")
    if (not isinstance(total_seconds, (int, float))
            or not math.isclose(total_seconds, second_sum,
                                rel_tol=1e-9, abs_tol=1e-12)):
        raise ValueError(
            f"totals.seconds {total_seconds!r} does not match "
            f"per-case sum {second_sum!r}")


def write_report(report: Dict[str, object], path: str) -> None:
    """Validate and write a report as pretty-printed JSON."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
