"""Machine configuration (Table 1 of the paper, plus depth variants)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..backend.funits import AllocationPolicy, DEFAULT_FU_COUNTS
from ..memory.hierarchy import HierarchyConfig
from ..trace.uop import FUClass

__all__ = ["DepthConfig", "MachineConfig", "BASELINE_DEPTH", "DEEP_DEPTH"]


@dataclass(frozen=True)
class DepthConfig:
    """Number of pipeline stages per logical step.

    The paper's baseline is the 8-stage pipeline of Figure 3 (fetch,
    decode, rename, issue, register read, execute, memory, writeback);
    §5.6 evaluates a 20-stage machine.  Per §2.2, latches at the end of
    fetch, decode, and issue stages cannot be gated; latches at the end
    of rename, register-read, execute, memory, and writeback stages can.
    """

    fetch: int = 1
    decode: int = 1
    rename: int = 1
    issue: int = 1
    regread: int = 1
    execute: int = 1
    mem: int = 1
    writeback: int = 1

    def __post_init__(self) -> None:
        for name in ("fetch", "decode", "rename", "issue", "regread",
                     "execute", "mem", "writeback"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} stages must be >= 1")

    @property
    def total_stages(self) -> int:
        return (self.fetch + self.decode + self.rename + self.issue
                + self.regread + self.execute + self.mem + self.writeback)

    @property
    def gated_latch_stages(self) -> int:
        """Stage latches DCG can gate (end of rename/rf/ex/mem/wb)."""
        return (self.rename + self.regread + self.execute
                + self.mem + self.writeback)

    @property
    def ungated_latch_stages(self) -> int:
        """Stage latches that stay clocked (end of fetch/decode/issue)."""
        return self.fetch + self.decode + self.issue

    @property
    def front_latency(self) -> int:
        """Cycles from fetch to issue-eligible (decode+rename+issue depth)."""
        return self.decode + self.rename + self.issue

    @property
    def issue_to_execute(self) -> int:
        """Cycles from selection to first execute stage (paper: 2)."""
        return 1 + self.regread

    @property
    def issue_to_mem(self) -> int:
        """Cycles from selection to D-cache access (paper: 3)."""
        return self.issue_to_execute + self.execute


#: the paper's 8-stage baseline
BASELINE_DEPTH = DepthConfig()

#: the §5.6 20-stage machine; extra stages are placed mostly in steps
#: whose latches DCG can gate, per the paper's discussion
DEEP_DEPTH = DepthConfig(fetch=3, decode=2, rename=2, issue=2,
                         regread=3, execute=2, mem=3, writeback=3)


@dataclass(frozen=True)
class MachineConfig:
    """Full microarchitectural configuration.

    Defaults reproduce Table 1: 8-way issue, 128-entry window, 64-entry
    load/store queue, the Table 1 functional-unit counts (§4.4 settles
    on 6 integer ALUs), 2-ported 64KB L1 D-cache, 2MB L2, and an 8-cycle
    misprediction penalty (redirect + front-end refill).
    """

    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    window_size: int = 128
    lsq_size: int = 64
    fu_counts: Dict[FUClass, int] = field(
        default_factory=lambda: dict(DEFAULT_FU_COUNTS))
    fu_policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL_PRIORITY
    depth: DepthConfig = BASELINE_DEPTH
    hierarchy: HierarchyConfig = HierarchyConfig()
    # branch prediction (Table 1)
    bpred_l1_entries: int = 8192
    bpred_l2_entries: int = 8192
    bpred_history_bits: int = 13
    btb_entries: int = 8192
    btb_assoc: int = 4
    ras_depth: int = 32
    #: extra cycles after branch resolution before fetch restarts; the
    #: visible penalty is this plus front-end refill (== 8 at baseline)
    mispredict_redirect: int = 3
    #: result buses (one per issue slot)
    result_buses: int = 8
    #: model wrong-path execution after a misprediction: synthetic
    #: wrong-path micro-ops are fetched, dispatched, and issued until
    #: the branch resolves, then squashed (rename-map checkpoint
    #: restore).  Off by default — the paper's power numbers and this
    #: repo's headline figures use the redirect-penalty approximation
    #: (DESIGN.md §7); turning this on quantifies the difference.
    model_wrong_path: bool = False

    def __post_init__(self) -> None:
        for name in ("fetch_width", "decode_width", "issue_width",
                     "commit_width", "window_size", "lsq_size",
                     "result_buses"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mispredict_redirect < 0:
            raise ValueError("mispredict_redirect must be non-negative")
        # a class with no units can never issue its ops: the core would
        # spin until the deadlock watchdog fires
        for fu_class in FUClass:
            count = self.fu_counts.get(fu_class, 0)
            if count < 1:
                raise ValueError(
                    f"{fu_class.name} unit count must be >= 1, got {count}")

    @property
    def dcache_ports(self) -> int:
        return self.hierarchy.l1d.ports

    def with_int_alus(self, count: int) -> "MachineConfig":
        """Copy with a different integer-ALU count (§4.4 sweep)."""
        counts = dict(self.fu_counts)
        counts[FUClass.INT_ALU] = count
        return replace(self, fu_counts=counts)

    def with_depth(self, depth: DepthConfig) -> "MachineConfig":
        return replace(self, depth=depth)
