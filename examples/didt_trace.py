#!/usr/bin/env python3
"""Per-cycle power traces and the §3.1 di/dt argument.

Records the machine's cycle-by-cycle power under DCG with the paper's
sequential-priority functional-unit binding and with a round-robin
binding.  Sequential priority keeps the same low-index units busy and
the same high-index units gated, so gate controls rarely toggle and the
power trace is calmer; round-robin spreads work across units and
toggles constantly — the control-power and supply-noise cost the paper
avoids by design.

Usage::

    python examples/didt_trace.py [benchmark]
"""

import sys
from dataclasses import replace

from repro import DCGPolicy, MachineConfig, Pipeline, TraceStream
from repro.backend import AllocationPolicy
from repro.power import BlockPowers, PowerTraceRecorder
from repro.workloads import SyntheticTraceGenerator, get_profile


def run(benchmark: str, policy_kind: AllocationPolicy, n: int = 6000):
    config = MachineConfig(fu_policy=policy_kind)
    generator = SyntheticTraceGenerator(get_profile(benchmark))
    dcg = DCGPolicy()
    pipe = Pipeline(config, TraceStream(iter(generator), limit=n), dcg)
    generator.prewarm(pipe.hierarchy)
    recorder = PowerTraceRecorder(BlockPowers(config))
    pipe.add_observer(recorder)
    pipe.run(max_instructions=n)
    return dcg, recorder, pipe.stats


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    print(f"workload: {benchmark}; DCG active in both runs\n")
    for label, kind in (("sequential-priority (paper §3.1)",
                         AllocationPolicy.SEQUENTIAL_PRIORITY),
                        ("round-robin (ablation)",
                         AllocationPolicy.ROUND_ROBIN)):
        dcg, recorder, stats = run(benchmark, kind)
        toggles_per_kcycle = 1000 * dcg.toggle_count / stats.cycles
        print(f"{label}:")
        print(f"  mean power {recorder.mean_power:6.2f} W   "
              f"peak {recorder.peak_power:6.2f} W   "
              f"max step {recorder.max_step():5.2f} W/cycle")
        print(f"  gate toggles: {toggles_per_kcycle:.0f} per kilo-cycle")
        print(f"  trace: {recorder.sparkline(width=64)}\n")


if __name__ == "__main__":
    main()
