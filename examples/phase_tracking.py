#!/usr/bin/env python3
"""Program phases: PLB's tracking lag vs DCG's indifference.

Splices a high-ILP phase (gzip-like) and a stall-bound phase
(mcf-like) into one instruction stream, switching every few thousand
instructions.  PLB's 256-cycle windows eventually follow the phase
changes — but each transition costs it either performance (still
narrow when the fast phase returns) or opportunity (still wide while
the slow phase stalls).  DCG needs no tracking: it gates whatever is
idle this cycle.

Usage::

    python examples/phase_tracking.py [phase_length]
"""

import sys

from repro import MachineConfig, Pipeline, TraceStream
from repro.core import DCGPolicy, NoGatingPolicy, PLBPolicy
from repro.power import BlockPowers, PowerAccountant
from repro.workloads import PhasedWorkload


def run(policy, phase_length: int, n: int):
    workload = PhasedWorkload(["gzip", "mcf"], phase_length=phase_length)
    pipe = Pipeline(MachineConfig(), TraceStream(iter(workload), limit=n),
                    policy)
    workload.prewarm(pipe.hierarchy)
    accountant = PowerAccountant(BlockPowers(pipe.config))
    pipe.add_observer(accountant)
    stats = pipe.run(max_instructions=n)
    return stats, accountant


def main() -> None:
    phase_length = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    n = 8 * phase_length
    print(f"workload: gzip/mcf phases of {phase_length} instructions, "
          f"{n} total\n")

    base_stats, __ = run(NoGatingPolicy(), phase_length, n)
    print(f"{'policy':10s} {'cycles':>8s} {'IPC':>6s} {'saved':>7s} "
          f"{'perf':>7s}  notes")
    print(f"{'base':10s} {base_stats.cycles:8d} {base_stats.ipc:6.2f} "
          f"{'—':>7s} {'100.0%':>7s}")

    dcg_stats, dcg_acc = run(DCGPolicy(), phase_length, n)
    print(f"{'dcg':10s} {dcg_stats.cycles:8d} {dcg_stats.ipc:6.2f} "
          f"{dcg_acc.total_saving_fraction:7.1%} "
          f"{base_stats.cycles / dcg_stats.cycles:7.1%}")

    plb = PLBPolicy(extended=True)
    plb_stats, plb_acc = run(plb, phase_length, n)
    total = sum(plb.mode_cycles.values())
    modes = "/".join(f"{plb.mode_cycles[m] / total:.0%}" for m in (8, 6, 4))
    print(f"{'plb-ext':10s} {plb_stats.cycles:8d} {plb_stats.ipc:6.2f} "
          f"{plb_acc.total_saving_fraction:7.1%} "
          f"{base_stats.cycles / plb_stats.cycles:7.1%}  "
          f"modes 8/6/4: {modes}, {plb.transitions} transitions")

    print("\nPLB re-learns the machine width after every phase change; "
          "DCG's saving\nis the per-cycle idle fraction, phase structure "
          "or not.")


if __name__ == "__main__":
    main()
