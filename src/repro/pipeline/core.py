"""Cycle-level out-of-order superscalar pipeline.

The model follows the paper's Figure 3 organisation: fetch, decode,
rename, issue (wakeup/select over a 128-entry window), register read,
execute, memory access, writeback, with in-order commit from the window.
Relative timing matches the paper's DCG discussion:

* instructions selected at issue in cycle ``X`` read registers at
  ``X+1`` and use their execution unit from ``X+2``;
* loads issued at ``X`` access the D-cache at ``X+3``;
* results write back over the result buses at ``X+2+latency-1`` (one
  cycle after the value becomes available to consumers);
* stores access the D-cache at commit, optionally one cycle later when
  the gating policy asks for DCG's store-delay variant (§3.3).

Each simulated cycle produces a :class:`~repro.pipeline.usage.CycleUsage`
that is handed to the gating policy and any registered observers (the
power accountant).

The per-cycle state is held as a struct of arrays:

* every in-flight instruction is a *slot index* into ~20 parallel
  int/object columns (``_seq``, ``_ready``, ``_unres``, ``_icyc``, ...),
  recycled through a free list when the op commits or is squashed;
* the cycle-keyed event calendars (result-bus completion, non-bus
  completion, branch resolution) are power-of-two rings of slot lists
  indexed by ``cycle & mask`` — the ring is sized past the deepest
  possible look-ahead (main-memory latency plus pipeline depth), so a
  slot is always drained before it can be re-targeted;
* functional-unit occupancy is a per-class ring of *bitmask ints*
  (bit ``i`` = instance ``i`` holds an op that cycle); the per-cycle
  activity tuples handed to policies are table look-ups on the mask;
* D-cache port reservations are int rings, and the issue counts that
  clock the gated latches live in a ring with sliding stage windows.

The entire per-cycle step runs as one fused method so the hot loop
pays for list indexing instead of attribute chases, object allocation,
and per-stage call overhead.

Two slot-lifetime rules keep recycling safe:

* The rename map is a 64-entry slot list.  The wrong-path checkpoint
  snapshots it together with per-slot generation counters; restore
  drops entries whose slot was recycled or whose op committed (dispatch
  ignores committed producers anyway).
* Squashed wrong-path ops that already issued keep their slot until
  their completion-calendar entry drains; unissued or completed ones
  free at squash time.

:meth:`Pipeline.capture_ops` records each captured op's stage cycles in
a :class:`~repro.pipeline.pipetrace.CapturedOp` hung off its slot, so
pipetrace rendering needs no per-op objects in the hot loop.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..backend.funits import FU_LATENCY, AllocationPolicy
from ..core.interface import CycleConstraints, GateDecision, GatingPolicy
from ..frontend.branch_predictor import BranchPredictor
from ..memory.hierarchy import CacheHierarchy
from ..trace.uop import FUClass, MicroOp, OpClass
from ..trace.stream import TraceStream
from .config import MachineConfig
from .pipetrace import CapturedOp
from .stats import SimStats
from .usage import CycleUsage, UsageTotals, activity_mask_table

__all__ = ["Pipeline", "CycleObserver"]

#: callback invoked after every cycle with (usage, gate decision)
CycleObserver = Callable[[CycleUsage, GateDecision], None]

_FU_EXEC_CLASSES = (FUClass.INT_ALU, FUClass.INT_MULT,
                    FUClass.FP_ALU, FUClass.FP_MULT)

#: abort if the machine makes no forward progress for this many cycles
_DEADLOCK_LIMIT = 50_000

# -- per-op-class constant tables, indexed by OpClass (an IntEnum) ----------

_F_LOAD, _F_STORE, _F_MEM, _F_BRANCH, _F_FP = 1, 2, 4, 8, 16

_LATENCY: Tuple[int, ...] = tuple(
    FU_LATENCY[cls].latency for cls in OpClass)
_PIPELINED: Tuple[bool, ...] = tuple(
    FU_LATENCY[cls].pipelined for cls in OpClass)

#: one representative MicroOp per op class, to read its derived flags
_PROBES: Tuple[MicroOp, ...] = tuple(
    MicroOp(0, 0, cls, mem_addr=0 if cls in (OpClass.LOAD, OpClass.STORE)
            else None, taken=False)
    for cls in OpClass)
_FLAGS: Tuple[int, ...] = tuple(
    (_F_LOAD if probe.is_load else 0)
    | (_F_STORE if probe.is_store else 0)
    | (_F_MEM if probe.is_mem else 0)
    | (_F_BRANCH if probe.is_branch else 0)
    | (_F_FP if probe.is_fp else 0)
    for probe in _PROBES)
#: FUClass *index* (int) per op class
_FU_OF: Tuple[int, ...] = tuple(int(probe.fu_class) for probe in _PROBES)
_FU_MEMBERS: Tuple[FUClass, ...] = tuple(FUClass)
_MEM_PORT = int(FUClass.MEM_PORT)


#: shared mask -> activity-tuple tables (identity-shared with DCG's
#: verify tables, so its cross-check is a pointer comparison)
_mask_table = activity_mask_table

#: per-slot op columns and the value a fresh slot holds in each.
#: ``_resq`` is 1 while the op sits in the resolve ring — a deep-regread
#: branch can commit before resolving, and its slot must not be recycled
#: under a live calendar reference; ``_rec`` is the op's pipetrace
#: record while it is captured
_COLUMNS = (
    ("_cls", OpClass.NOP), ("_flags", 0), ("_seq", 0), ("_dest", -1),
    ("_mem", 0), ("_pc", 0), ("_taken", False), ("_btarget", None),
    ("_ptaken", False), ("_ptarget", None), ("_ready", 0), ("_unres", 0),
    ("_icyc", -1), ("_cons_ready", -1), ("_done", 0), ("_com", 0),
    ("_wp", 0), ("_sq", 0), ("_resq", 0), ("_gen", 0), ("_rec", None),
)


class Pipeline:
    """Trace-driven out-of-order core.

    Parameters
    ----------
    config:
        Machine configuration (Table 1 by default).
    stream:
        Micro-op source.
    policy:
        Gating policy; :class:`~repro.core.interface.NoGatingPolicy`
        reproduces the paper's base case.
    hierarchy / predictor:
        Optional pre-built memory system and branch predictor (built
        from ``config`` when omitted).
    """

    def __init__(self, config: MachineConfig, stream: TraceStream,
                 policy: GatingPolicy,
                 hierarchy: Optional[CacheHierarchy] = None,
                 predictor: Optional[BranchPredictor] = None) -> None:
        self.config = config
        self.stream = stream
        self.policy = policy
        policy.bind(config)
        self.hierarchy = hierarchy or CacheHierarchy(config.hierarchy)
        self.predictor = predictor or BranchPredictor(
            l1_entries=config.bpred_l1_entries,
            l2_entries=config.bpred_l2_entries,
            history_bits=config.bpred_history_bits,
            btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc,
            ras_depth=config.ras_depth)
        self.observers: List[CycleObserver] = []
        self.stats = SimStats()
        self.totals = UsageTotals()

        depth = config.depth
        self._front_latency = depth.front_latency
        self._issue_to_execute = depth.issue_to_execute
        self._issue_to_mem = depth.issue_to_mem
        self._fetch_width = config.fetch_width
        self._commit_width = config.commit_width
        self._issue_width_cfg = config.issue_width
        self._decode_width = config.decode_width
        self._window_size = config.window_size
        self._lsq_size = config.lsq_size
        self._writeback_depth = depth.writeback
        self._line_bytes = self.hierarchy.l1i.line_bytes
        self._l1i_hit_latency = self.hierarchy.config.l1i.hit_latency
        self._l1d_hit_latency = self.hierarchy.config.l1d.hit_latency

        regread, execute, mem = depth.regread, depth.execute, depth.mem
        self._rename_depth = depth.rename
        # issued-count ring + sliding stage windows: the regread /
        # execute / mem latch occupancies are contiguous windows over
        # past issue counts, so each is updated incrementally from the
        # cycle entering and the cycle leaving its window instead of
        # being re-summed; _win_edges holds the four window boundaries
        # as offsets behind the current cycle
        self._win_edges = (1, 1 + regread, 1 + regread + execute,
                           1 + regread + execute + mem)
        isize = 1
        while isize < regread + execute + mem + 2:
            isize <<= 1
        self._iring_mask = isize - 1
        self._issued_ring = [0] * isize
        self._rf_sum = 0
        self._ex_sum = 0
        self._mem_sum = 0

        # event-ring horizon: the deepest calendar look-ahead is a load
        # missing to main memory (absolute latency, Table 1 convention)
        # plus issue depth and the +2 writeback/spill slack; unpipelined
        # dividers and the deep-pipeline config stay far below it
        hier = self.hierarchy.config
        horizon = (max(hier.memory_latency, hier.l2.hit_latency,
                       hier.l1d.hit_latency, 20)
                   + self._issue_to_mem + depth.writeback + 8)
        size = 1
        while size < horizon:
            size <<= 1
        self._cal_size = size
        self._cal_mask = size - 1
        self._bus_ring: List[List[int]] = [[] for _ in range(size)]
        self._other_ring: List[List[int]] = [[] for _ in range(size)]
        self._resolve_ring: List[List[int]] = [[] for _ in range(size)]
        self._pload_ring = [0] * size
        self._pstore_ring = [0] * size

        # functional units: per-class busy_until columns + activity
        # bitmask rings + per-class mask->tuple tables
        counts = dict(config.fu_counts)
        self._fu_counts = counts
        self._fu_busy: List[List[int]] = [
            [-1] * counts.get(cls, 0) for cls in _FU_MEMBERS]
        self._fu_len = [counts.get(cls, 0) for cls in _FU_MEMBERS]
        self._fu_dis = [0] * len(_FU_MEMBERS)
        self._fu_rr = [0] * len(_FU_MEMBERS)
        self._sequential = (config.fu_policy
                           is AllocationPolicy.SEQUENTIAL_PRIORITY)
        self._act_rings: List[List[int]] = [
            [0] * size for _ in _FU_MEMBERS]
        self._exec_rows: Tuple[Tuple[FUClass, int, List[int],
                                     Tuple[Tuple[bool, ...], ...],
                                     int], ...] = \
            tuple((cls, int(cls), self._act_rings[int(cls)],
                   _mask_table(counts.get(cls, 0)), counts.get(cls, 0))
                  for cls in _FU_EXEC_CLASSES)
        #: reusable (class, active, capacity) rows handed to
        #: UsageTotals.add so it never re-sums activity tuples
        self._fu_counts_buf: List[Tuple[FUClass, int, int]] = \
            [(cls, 0, 0) for cls in _FU_EXEC_CLASSES]
        self._last_cons: Optional[CycleConstraints] = None
        #: constant-constraints fast path (base / DCG): fetch once,
        #: skip the per-cycle constraints() call
        self._static_cons: Optional[CycleConstraints] = (
            policy.constraints(0) if getattr(
                policy, "constraints_static", False) else None)

        # op columns (see _COLUMNS); slots recycled through the free list
        self._cap = 0
        for name, _fill in _COLUMNS:
            setattr(self, name, [])
        #: per slot, the dispatched ops waiting on its result
        self._wait: List[List[int]] = []
        self._free: List[int] = []
        self._grow(config.window_size + 256)

        # machine state
        self.cycle = 0
        self._window: Deque[int] = deque()
        self._pending_issue: List[int] = []
        self._frontend: Deque[tuple] = deque()
        self._frontend_cap = config.fetch_width * (self._front_latency + 2)
        self._lsq_count = 0
        self._rp: List[int] = [-1] * 64          # register -> producer slot
        self._store_map: Dict[int, int] = {}

        self._fetch_blocked_until = 0
        self._fetch_frozen = False
        self._last_fetch_line = -1

        self._wp_rng = random.Random(0x0D15EA5E)
        self._wp_active = False
        self._wp_pc = 0
        self._wp_seq = 0
        self._wp_dest = 0
        self._last_mem_addr = 0x1000_0000
        #: (branch slot, branch gen, rp snapshot, rp gen snapshot)
        self._checkpoint: Optional[Tuple[int, int, List[int],
                                         List[int]]] = None
        self._last_commit_cycle = 0

        # optional per-op capture for pipetrace rendering
        self._capture_limit = 0
        #: captured ops not yet committed or squashed
        self._capture_live = 0
        self.captured_ops: List[CapturedOp] = []

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------

    def _grow(self, extra: int) -> None:
        base = self._cap
        for name, fill in _COLUMNS:
            getattr(self, name).extend([fill] * extra)
        self._wait.extend([] for _ in range(extra))
        self._cap += extra
        self._free.extend(range(self._cap - 1, base - 1, -1))

    def _release(self, slot: int) -> None:
        """Recycle ``slot`` unless the rename map still references it."""
        dest = self._dest[slot]
        if dest >= 0 and self._rp[dest] == slot:
            return
        waiters = self._wait[slot]
        if waiters:
            # squashed-before-issue producers can still hold waiters;
            # those waiters are themselves squashed, so just drop them
            waiters.clear()
        self._gen[slot] += 1
        self._free.append(slot)

    def add_observer(self, observer: CycleObserver) -> None:
        self.observers.append(observer)

    def capture_ops(self, limit: int) -> None:
        """Record the first ``limit`` dispatched ops (wrong-path
        included) for :func:`repro.pipeline.pipetrace.render_pipetrace`."""
        if limit < 0:
            raise ValueError("limit must be non-negative")
        self._capture_limit = limit

    def _mark_complete(self, slots: List[int], c: int) -> None:
        o_rec = self._rec
        for s in slots:
            rec = o_rec[s]
            if rec is not None:
                rec.complete_cycle = c

    # ------------------------------------------------------------------
    # top-level loop
    # ------------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit (or the trace ends
        and the pipeline drains).  Returns the statistics object."""
        target = max_instructions
        stats = self.stats
        stream = self.stream
        window = self._window
        step = self._step
        while True:
            if target is not None and stats.committed >= target:
                break
            # the empty-machine checks go first: ``stream.exhausted``
            # costs a lookahead fill, and the window is non-empty on
            # almost every mid-run cycle
            if (not window and not self._frontend and stream.exhausted):
                break
            step()
            if self.cycle - self._last_commit_cycle > _DEADLOCK_LIMIT:
                raise RuntimeError(
                    f"pipeline deadlock: no commit since cycle "
                    f"{self._last_commit_cycle} (now {self.cycle})")
        self.stats.finalize(self)
        return self.stats

    # ------------------------------------------------------------------
    # the fused per-cycle step
    # ------------------------------------------------------------------

    def _step(self) -> None:
        c = self.cycle
        policy = self.policy
        cons = self._static_cons
        if cons is None:
            cons = policy.constraints(c)
        if cons is not self._last_cons:
            disabled = cons.disabled_fus
            fu_len = self._fu_len
            fu_dis = self._fu_dis
            for cls in _FU_EXEC_CLASSES:
                count = disabled.get(cls, 0)
                total = fu_len[cls]
                if not 0 <= count <= total:
                    raise ValueError(
                        f"cannot disable {count} of {total} "
                        f"{cls.name} units")
                fu_dis[cls] = count
            self._last_cons = cons
        usage = CycleUsage(c)
        stats = self.stats
        mwp = self.config.model_wrong_path
        cmask = self._cal_mask
        cidx = c & cmask
        capturing = self._capture_live > 0

        o_done = self._done
        o_com = self._com
        o_sq = self._sq
        o_flags = self._flags
        o_dest = self._dest
        o_ready = self._ready
        o_unres = self._unres
        o_icyc = self._icyc
        o_cons = self._cons_ready
        o_seq = self._seq
        o_mem = self._mem
        o_wp = self._wp
        o_wait = self._wait
        rp = self._rp
        window = self._window

        # -- branch resolution ------------------------------------------
        resolve_list = self._resolve_ring[cidx]
        if resolve_list:
            predictor_resolve = self.predictor.resolve
            o_pc = self._pc
            o_taken = self._taken
            o_btarget = self._btarget
            o_ptaken = self._ptaken
            o_ptarget = self._ptarget
            o_resq = self._resq
            for s in resolve_list:
                o_resq[s] = 0
                mispredicted = predictor_resolve(
                    o_pc[s], o_ptaken[s], o_ptarget[s],
                    o_taken[s], o_btarget[s])
                if mispredicted:
                    stats.mispredicts += 1
                    self._fetch_frozen = False
                    blocked = c + self.config.mispredict_redirect
                    if blocked > self._fetch_blocked_until:
                        self._fetch_blocked_until = blocked
                    if mwp:
                        self._squash_wrong_path(s)
                if o_com[s]:
                    # deep-regread branch that committed before resolving;
                    # its calendar reference just drained
                    self._release(s)
            resolve_list.clear()

        # -- completion / writeback -------------------------------------
        bus_list = self._bus_ring[cidx]
        buses_used = 0
        if bus_list:
            writers = bus_list
            if mwp:
                writers = []
                for s in bus_list:
                    if o_sq[s]:
                        self._release(s)
                    else:
                        writers.append(s)
            n_buses = cons.result_buses
            if len(writers) > n_buses:
                self._bus_ring[(c + 1) & cmask].extend(writers[n_buses:])
                writers = writers[:n_buses]
            for s in writers:
                o_done[s] = 1
            if capturing:
                self._mark_complete(writers, c)
            buses_used = len(writers)
            bus_list.clear()
        other_list = self._other_ring[cidx]
        if other_list:
            for s in other_list:
                if mwp and o_sq[s]:
                    self._release(s)
                else:
                    o_done[s] = 1
            if capturing:
                # squashed slots dropped their record at squash time
                self._mark_complete(other_list, c)
            other_list.clear()
        usage.result_bus_used = buses_used
        usage.latch_slots["writeback"] = buses_used * self._writeback_depth

        # -- commit ------------------------------------------------------
        committed = 0
        if window:
            commit_width = self._commit_width
            commit_counts = stats.commit_class_counts
            store_map = self._store_map
            o_cls = self._cls
            pstore_ring = self._pstore_ring
            pload_ring = self._pload_ring
            hierarchy_store = self.hierarchy.store
            store_delay = cons.store_extra_delay
            dcache_ports = cons.dcache_ports
            free = self._free
            gens = self._gen
            o_resq = self._resq
            while window and committed < commit_width:
                s = window[0]
                if not o_done[s]:
                    break
                flags = o_flags[s]
                if flags & _F_STORE:
                    aidx = (c + store_delay) & cmask
                    stores_now = pstore_ring[aidx]
                    if pload_ring[aidx] + stores_now >= dcache_ports:
                        break
                    pstore_ring[aidx] = stores_now + 1
                    addr = o_mem[s]
                    hierarchy_store(addr)
                    stats.stores += 1
                    if store_map.get(addr) == s:
                        del store_map[addr]
                window.popleft()
                o_com[s] = 1
                committed += 1
                stats.committed += 1
                commit_counts[o_cls[s]] += 1
                if flags & _F_MEM:
                    self._lsq_count -= 1
                dest = o_dest[s]
                if dest >= 0 and rp[dest] == s:
                    rp[dest] = -1
                if capturing:
                    rec = self._rec[s]
                    if rec is not None:
                        rec.commit_cycle = c
                        self._rec[s] = None
                        self._capture_live -= 1
                if o_resq[s]:
                    continue  # unresolved branch: freed at resolve drain
                gens[s] += 1
                free.append(s)
            if committed:
                self._last_commit_cycle = c
        usage.committed = committed

        # -- issue (wakeup / select) ------------------------------------
        pending = self._pending_issue
        issued = 0
        if pending:
            width = cons.issue_width
            if self._issue_width_cfg < width:
                width = self._issue_width_cfg
            i2e = self._issue_to_execute
            i2m = self._issue_to_mem
            fu_busy = self._fu_busy
            fu_len = self._fu_len
            fu_dis = self._fu_dis
            sequential = self._sequential
            act_rings = self._act_rings
            bus_ring = self._bus_ring
            other_ring = self._other_ring
            grants = usage.grants
            pload_ring = self._pload_ring
            pstore_ring = self._pstore_ring
            store_map = self._store_map
            keep: Optional[List[int]] = None
            for i, s in enumerate(pending):
                if issued >= width:
                    if keep is not None:
                        keep.extend(pending[i:])
                    break
                ok = False
                if o_icyc[s] < 0 and o_unres[s] == 0 and o_ready[s] <= c:
                    flags = o_flags[s]
                    cls = self._cls[s]
                    if not flags & _F_MEM:
                        # execution / branch / nop issue
                        latency = _LATENCY[cls]
                        ex_start = c + i2e
                        fu = _FU_OF[cls]
                        unit = self._allocate(fu, cls, ex_start)
                        if unit >= 0:
                            ring = act_rings[fu]
                            bit = 1 << unit
                            for cc in range(ex_start, ex_start + latency):
                                ring[cc & cmask] |= bit
                            grants.append((_FU_MEMBERS[fu], unit, latency))
                            consumer_ready = c + latency
                            complete = (c + 1 + latency) & cmask
                            if o_dest[s] >= 0:
                                bus_ring[complete].append(s)
                            else:
                                other_ring[complete].append(s)
                            if flags & _F_BRANCH:
                                self._resq[s] = 1
                                self._resolve_ring[
                                    ex_start & cmask].append(s)
                            if flags & _F_FP:
                                usage.issued_fp += 1
                            ok = True
                    elif flags & _F_LOAD:
                        addr = o_mem[s]
                        st = store_map.get(addr)
                        forwarding = -1
                        blocked = False
                        if (st is not None and o_seq[st] < o_seq[s]
                                and not o_com[st]):
                            if o_icyc[st] < 0:
                                blocked = True  # older store not issued
                            else:
                                forwarding = st
                        if not blocked:
                            midx = (c + i2m) & cmask
                            loads_now = pload_ring[midx]
                            if (loads_now + pstore_ring[midx]
                                    < cons.dcache_ports):
                                unit = self._allocate(
                                    _MEM_PORT, cls, c + i2m)
                                if unit >= 0:
                                    pload_ring[midx] = loads_now + 1
                                    self._last_mem_addr = addr
                                    raw = self.hierarchy.load(addr)
                                    if forwarding >= 0:
                                        data_ready = o_icyc[forwarding] + i2e
                                        ready = c + 1 + self._l1d_hit_latency
                                        if data_ready + 1 > ready:
                                            ready = data_ready + 1
                                        stats.forwarded_loads += 1
                                    else:
                                        ready = c + 1 + raw
                                    consumer_ready = ready
                                    bus_ring[
                                        (ready + 1) & cmask].append(s)
                                    usage.issued_loads += 1
                                    stats.loads += 1
                                    ok = True
                    else:
                        # store: address/data generation, access at commit
                        unit = self._allocate(_MEM_PORT, cls, c + i2m)
                        if unit >= 0:
                            consumer_ready = c + 1
                            other_ring[(c + i2e) & cmask].append(s)
                            usage.issued_stores += 1
                            ok = True
                if ok:
                    # scheduled: dependants may issue from consumer_ready
                    o_icyc[s] = c
                    o_cons[s] = consumer_ready
                    waiters = o_wait[s]
                    if waiters:
                        for w in waiters:
                            o_unres[w] -= 1
                            if consumer_ready > o_ready[w]:
                                o_ready[w] = consumer_ready
                        waiters.clear()
                    issued += 1
                    if capturing:
                        rec = self._rec[s]
                        if rec is not None:
                            rec.issued_cycle = c
                    if keep is None:
                        keep = pending[:i]
                elif keep is not None:
                    keep.append(s)
            if keep is not None:
                self._pending_issue = keep
        usage.issued = issued

        # -- dispatch (rename -> window) --------------------------------
        dispatched = 0
        frontend = self._frontend
        if frontend:
            width = self._decode_width
            if cons.rename_width < width:
                width = cons.rename_width
            window_size = self._window_size
            lsq_size = self._lsq_size
            pending = self._pending_issue
            free = self._free
            o_cls = self._cls
            gens = self._gen
            capture_room = self._capture_limit - len(self.captured_ops)
            next_ready = c + 1
            while (frontend and dispatched < width
                   and len(window) < window_size):
                entry = frontend[0]
                uop = entry[0]
                if entry[1] > c:
                    break
                is_mem = uop.is_mem
                if is_mem and self._lsq_count >= lsq_size:
                    break
                frontend.popleft()
                if not free:
                    self._grow(self._cap)
                    free = self._free
                s = free.pop()
                op_class = uop.op_class
                o_cls[s] = op_class
                flags = _FLAGS[op_class]
                o_flags[s] = flags
                o_seq[s] = uop.seq
                dest = uop.dest
                o_dest[s] = -1 if dest is None else dest
                o_ready[s] = next_ready
                o_unres[s] = 0
                o_icyc[s] = -1
                o_cons[s] = -1
                o_done[s] = 0
                o_com[s] = 0
                if mwp:
                    # wrong-path/squash marks are only ever read by the
                    # squash machinery, which exists only under
                    # model_wrong_path
                    o_wp[s] = entry[4]
                    o_sq[s] = 0
                if flags & _F_BRANCH:
                    self._pc[s] = uop.pc
                    self._taken[s] = uop.taken
                    self._btarget[s] = uop.target
                    self._ptaken[s] = entry[2]
                    self._ptarget[s] = entry[3]
                    if entry[5]:
                        # checkpoint the rename map (plus generations, so
                        # recycled slots are dropped at restore)
                        self._checkpoint = (
                            s, gens[s], rp[:],
                            [gens[p] if p >= 0 else 0 for p in rp])
                for src in uop.srcs:
                    p = rp[src]
                    if p >= 0 and not o_com[p]:
                        consumer_ready = o_cons[p]
                        if consumer_ready >= 0:
                            if consumer_ready > o_ready[s]:
                                o_ready[s] = consumer_ready
                        else:
                            o_unres[s] += 1
                            o_wait[p].append(s)
                if dest is not None:
                    rp[dest] = s
                if is_mem:
                    self._lsq_count += 1
                    addr = uop.mem_addr
                    o_mem[s] = addr
                    if flags & _F_STORE:
                        self._store_map[addr] = s
                window.append(s)
                pending.append(s)
                if capture_room > 0:
                    rec = CapturedOp(uop, c, entry[4])
                    self.captured_ops.append(rec)
                    self._rec[s] = rec
                    self._capture_live += 1
                    capture_room -= 1
                dispatched += 1
        usage.dispatched = dispatched
        usage.renamed = dispatched

        # -- fetch -------------------------------------------------------
        if self._fetch_frozen or c < self._fetch_blocked_until:
            if (self._wp_active and not (c < self._fetch_blocked_until)
                    and mwp):
                self._fetch_wrong_path(c, usage)
            else:
                usage.fetch_stalled = True
        else:
            fetched = 0
            line_bytes = self._line_bytes
            stream = self.stream
            fetch_width = self._fetch_width
            cap = self._frontend_cap
            ready = c + self._front_latency
            last_line = self._last_fetch_line
            predictor_predict = self.predictor.predict
            while fetched < fetch_width and len(frontend) < cap:
                # inlined stream.peek()
                uop = stream._lookahead
                if uop is None:
                    stream._fill()
                    uop = stream._lookahead
                    if uop is None:
                        break
                pc = uop.pc
                line = pc // line_bytes
                if line != last_line:
                    latency = self.hierarchy.fetch(pc)
                    last_line = line
                    if latency > self._l1i_hit_latency:
                        self._fetch_blocked_until = c + latency
                        break
                # inlined stream.next() (lookahead is known non-None)
                stream._lookahead = None
                stream._delivered += 1
                fetched += 1
                stats.fetched += 1
                if uop.is_branch:
                    predicted_taken, predicted_target = \
                        predictor_predict(pc)
                    taken = uop.taken
                    mispredicted = (
                        predicted_taken != taken
                        or (taken and predicted_target != uop.target))
                    frontend.append((uop, ready, predicted_taken,
                                     predicted_target, False,
                                     mispredicted and mwp))
                    if mispredicted:
                        self._fetch_frozen = True
                        if mwp:
                            self._wp_active = True
                            self._wp_pc = (
                                predicted_target
                                if predicted_taken
                                and predicted_target is not None
                                else pc + 4)
                            self._wp_seq = uop.seq + 1
                        break
                    if taken:
                        break
                else:
                    frontend.append((uop, ready, False, None, False,
                                     False))
            self._last_fetch_line = last_line
            usage.fetched = fetched
            usage.decoded = fetched
            if fetched == 0:
                usage.fetch_stalled = True

        # -- per-cycle bookkeeping --------------------------------------
        ring = self._issued_ring
        im = self._iring_mask
        e1, e2, e3, e4 = self._win_edges
        a = ring[(c - e1) & im]
        b = ring[(c - e2) & im]
        d = ring[(c - e3) & im]
        e = ring[(c - e4) & im]
        rf = self._rf_sum = self._rf_sum + a - b
        ex = self._ex_sum = self._ex_sum + b - d
        mem = self._mem_sum = self._mem_sum + d - e
        ring[c & im] = issued
        latch_slots = usage.latch_slots
        latch_slots["regread"] = rf
        latch_slots["execute"] = ex
        latch_slots["mem"] = mem
        latch_slots["rename"] = dispatched * self._rename_depth

        fu_active = usage.fu_active
        fu_counts = self._fu_counts_buf
        row_i = 0
        for fu_cls, fu_idx, act_ring, table, capacity in self._exec_rows:
            bits = act_ring[cidx]
            if bits:
                act_ring[cidx] = 0
            fu_active[fu_cls] = table[bits]
            fu_counts[row_i] = (fu_cls, bits.bit_count(), capacity)
            row_i += 1
        usage.dcache_load_ports = self._pload_ring[cidx]
        self._pload_ring[cidx] = 0
        usage.dcache_store_ports = self._pstore_ring[cidx]
        self._pstore_ring[cidx] = 0
        usage.window_occupancy = len(window)
        usage.lsq_occupancy = self._lsq_count
        stats.cycles = c + 1

        decision = policy.observe(usage)
        for observer in self.observers:
            observer(usage, decision)
        self.totals.add(usage, fu_counts)
        self.cycle = c + 1

    # ------------------------------------------------------------------
    # functional-unit allocation
    # ------------------------------------------------------------------

    def _allocate(self, fu: int, cls: OpClass, cycle: int) -> int:
        """Allocate an instance of class index ``fu`` starting at
        ``cycle``; returns the unit index or -1 (all enabled busy)."""
        limit = self._fu_len[fu] - self._fu_dis[fu]
        if limit <= 0:
            return -1
        busy = self._fu_busy[fu]
        hold = (cycle if _PIPELINED[cls]
                else cycle + _LATENCY[cls] - 1)
        if self._sequential:
            for i in range(limit):
                if busy[i] < cycle:
                    busy[i] = hold
                    return i
            return -1
        start = self._fu_rr[fu] % limit
        for i in range(start, limit):
            if busy[i] < cycle:
                busy[i] = hold
                self._fu_rr[fu] = i + 1
                return i
        for i in range(start):
            if busy[i] < cycle:
                busy[i] = hold
                self._fu_rr[fu] = i + 1
                return i
        return -1

    # ------------------------------------------------------------------
    # wrong-path modeling
    # ------------------------------------------------------------------

    def _squash_wrong_path(self, branch_slot: int) -> None:
        self._wp_active = False
        if self._frontend:
            self._frontend = deque(e for e in self._frontend if not e[4])
        window = self._window
        o_wp = self._wp
        o_sq = self._sq
        stats = self.stats
        popped: List[int] = []
        o_rec = self._rec
        while window and o_wp[window[-1]]:
            s = window.pop()
            o_sq[s] = 1
            rec = o_rec[s]
            if rec is not None:
                rec.squashed = True
                o_rec[s] = None
                self._capture_live -= 1
            stats.wrong_path_squashed += 1
            if self._flags[s] & _F_MEM:
                self._lsq_count -= 1
            popped.append(s)
        pending = self._pending_issue
        if pending and any(o_sq[s] for s in pending):
            self._pending_issue = [s for s in pending if not o_sq[s]]
        checkpoint = self._checkpoint
        if checkpoint is not None:
            chk_slot, chk_gen, saved_rp, saved_gen = checkpoint
            if chk_slot == branch_slot and chk_gen == self._gen[branch_slot]:
                rp = self._rp
                gens = self._gen
                o_com = self._com
                for reg in range(len(rp)):
                    p = saved_rp[reg]
                    if p >= 0 and (gens[p] != saved_gen[reg] or o_com[p]):
                        p = -1
                    rp[reg] = p
                self._checkpoint = None
        # unissued ops have no calendar reference; completed ones have
        # drained theirs — both free now.  Issued-but-incomplete ops
        # free when their completion-ring entry is filtered.
        o_icyc = self._icyc
        o_done = self._done
        for s in popped:
            if o_icyc[s] < 0 or o_done[s]:
                self._release(s)

    def _fetch_wrong_path(self, c: int, usage: CycleUsage) -> None:
        fetched = 0
        line_bytes = self._line_bytes
        frontend = self._frontend
        ready = c + self._front_latency
        while (fetched < self._fetch_width
               and len(frontend) < self._frontend_cap):
            line = self._wp_pc // line_bytes
            if line != self._last_fetch_line:
                latency = self.hierarchy.fetch(self._wp_pc)
                self._last_fetch_line = line
                if latency > self._l1i_hit_latency:
                    self._fetch_blocked_until = c + latency
                    break
            uop = self._synth_wrong_path_op()
            frontend.append((uop, ready, False, None, True, False))
            fetched += 1
            self.stats.wrong_path_fetched += 1
        usage.fetched = fetched
        usage.decoded = fetched
        if fetched == 0:
            usage.fetch_stalled = True

    def _synth_wrong_path_op(self) -> MicroOp:
        pc = self._wp_pc
        self._wp_pc += 4
        seq = self._wp_seq
        self._wp_seq += 1
        dest = 20 + (self._wp_dest % 8)
        self._wp_dest += 1
        if self._wp_rng.random() < 0.25:
            offset = 8 * self._wp_rng.randrange(-64, 64)
            addr = max(0, (self._last_mem_addr & ~7) + offset)
            return MicroOp(seq, pc, OpClass.LOAD, dest=dest, mem_addr=addr)
        return MicroOp(seq, pc, OpClass.IALU, dest=dest)
