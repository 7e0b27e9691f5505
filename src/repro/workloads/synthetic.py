"""Synthetic micro-op trace generation.

:class:`SyntheticTraceGenerator` turns a
:class:`~repro.workloads.profiles.BenchmarkProfile` into an unbounded,
reproducible stream of :class:`~repro.trace.uop.MicroOp`.

The generator builds a small static control-flow skeleton (a ring of
basic blocks with loop back-edges, data-dependent conditional branches,
and occasional indirect-style jumps) and walks it, so the 2-level branch
predictor in the timing model sees realistic, learnable history: loop
branches mispredict roughly once per trip, data-dependent branches
mispredict at their bias rate.

Data addresses follow the profile's three-region working-set model, and
register dependencies follow a geometric producer-distance distribution,
optionally serialised by pointer-chasing loads.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import log
from typing import Dict, Iterator, List, Optional, Tuple

from ..trace.uop import _CLASS_FLAGS, MicroOp, OpClass
from .profiles import BenchmarkProfile

__all__ = ["SyntheticTraceGenerator", "generate_trace"]

_CODE_BASE = 0x0040_0000
_HOT_BASE = 0x1000_0000
_WARM_BASE = 0x2000_0000
_COLD_BASE = 0x3000_0000
_LINE_BYTES = 64
_WORD = 8

# register pools used for generated values (r0 is the zero register and
# low registers are reserved so kernels and synthetic traces never clash)
_INT_POOL = tuple(range(4, 32))
_FP_POOL = tuple(range(36, 64))
# long-stable registers (stack pointer, loop invariants): the generator
# never writes these, so sources reading them are always ready
_INT_STABLE = (1, 2, 3)
_FP_STABLE = (33, 34, 35)
# pool sizes and their bit lengths, for the inlined uniform draws below
_POOL_N, _STABLE_N = len(_INT_POOL), len(_INT_STABLE)
assert (_POOL_N, _STABLE_N) == (len(_FP_POOL), len(_FP_STABLE))
_POOL_K, _STABLE_K = _POOL_N.bit_length(), _STABLE_N.bit_length()


def _below(getrandbits, n: int, k: int) -> int:
    """Uniform int in ``[0, n)``, drawn exactly as ``random.Random`` does.

    This is CPython's ``_randbelow_with_getrandbits`` rejection loop,
    which ``Random.choice(seq)`` and ``Random.randrange(n)`` both reduce
    to; ``k`` must be ``n.bit_length()`` and ``n`` positive.  Calling it
    directly skips two Python-level frames per draw and consumes the
    same ``getrandbits`` calls, so the stream is unchanged.
    """
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@dataclass
class _Block:
    """One static basic block of the synthetic CFG."""

    index: int
    base_pc: int
    body_len: int           #: non-branch instructions before the branch
    kind: str               #: "loop" | "random" | "jump" | "fall"
    target_index: int       #: branch-taken successor block
    taken_prob: float = 0.5  #: only used by "random" blocks

    @property
    def branch_pc(self) -> int:
        return self.base_pc + 4 * self.body_len


class SyntheticTraceGenerator:
    """Unbounded micro-op stream for one benchmark profile.

    Parameters
    ----------
    profile:
        Workload description.
    seed:
        Overrides ``profile.seed`` when given, so variance studies can
        re-run the same benchmark with different random streams.
    """

    def __init__(self, profile: BenchmarkProfile, seed: Optional[int] = None,
                 code_base: int = _CODE_BASE) -> None:
        self.profile = profile
        self.code_base = code_base
        self._rng = random.Random(profile.seed if seed is None else seed)
        self._seq = 0
        self._recent_int: List[int] = []
        self._recent_fp: List[int] = []
        self._last_load_dest: Optional[int] = None
        self._chase_next_load = False
        self._int_rr = 0
        self._fp_rr = 0
        self._cold_ptr = _COLD_BASE
        self._loop_counters: Dict[int, int] = {}
        self._mix_classes, self._mix_weights = self._build_mix(profile)
        # precomputed cumulative weights so _body_op can draw the op
        # class with one rng.random() + bisect instead of rng.choices()
        # (which rebuilds the cumulative table on every call); the draw
        # consumes the RNG stream exactly as rng.choices() would
        self._mix_cum = list(accumulate(self._mix_weights))
        self._mix_total = self._mix_cum[-1] + 0.0
        self._mix_hi = len(self._mix_cum) - 1
        self._blocks = self._build_cfg(profile)

    # -- static structure ----------------------------------------------------

    @staticmethod
    def _build_mix(profile: BenchmarkProfile) -> Tuple[List[OpClass], List[float]]:
        classes: List[OpClass] = []
        weights: List[float] = []
        for cls, frac in profile.mix.items():
            if frac > 0.0:
                classes.append(cls)
                weights.append(frac)
        if not classes:
            raise ValueError(f"profile {profile.name} has an empty mix")
        return classes, weights

    def _build_cfg(self, profile: BenchmarkProfile) -> List[_Block]:
        mean_body = max(1.0, (1.0 - profile.branch_fraction)
                        / max(profile.branch_fraction, 1e-6))
        blocks: List[_Block] = []
        pc = self.code_base
        n = profile.code_blocks
        for index in range(n):
            # low-variance body lengths keep the *dynamic* branch
            # fraction close to the profile target even when loops make
            # a handful of blocks dominate execution
            body_len = max(1, round(self._rng.gauss(mean_body, 0.30 * mean_body)))
            roll = self._rng.random()
            if roll < profile.random_branch_fraction:
                kind = "random"
                target = (index + self._rng.randint(2, 5)) % n
            elif roll < profile.random_branch_fraction + 0.04:
                kind = "jump"
                target = self._rng.randrange(n)
            else:
                kind = "loop"
                # mostly self-loops; occasional two-block bodies.  Deep
                # multiplicative nesting would let one nest dominate.
                depth_roll = self._rng.random()
                back = 0 if depth_roll < 0.7 else 1
                target = max(0, index - back)
            blocks.append(_Block(
                index=index, base_pc=pc, body_len=body_len, kind=kind,
                target_index=target,
                taken_prob=profile.random_branch_taken_prob))
            pc += 4 * (body_len + 1)
        return blocks

    # -- public API ------------------------------------------------------------

    def prewarm(self, hierarchy) -> None:
        """Warm the caches with this workload's resident working set.

        Stands in for the paper's 2-billion-instruction fast-forward:
        the code footprint is installed in the L1 I-cache, the hot data
        region in L1D + L2, and the warm region in L2.  The cold region
        streams and stays uncached by design.
        """
        p = self.profile
        hierarchy.prewarm_data_region(_HOT_BASE, p.hot_bytes, into_l1=True)
        hierarchy.prewarm_data_region(_WARM_BASE, p.warm_bytes)
        last = self._blocks[-1]
        code_bytes = (last.branch_pc + 4) - self.code_base
        line = hierarchy.l1i.line_bytes
        for addr in range(self.code_base, self.code_base + code_bytes, line):
            hierarchy.l1i.preload(addr)
            hierarchy.l2.preload(addr)

    def __iter__(self) -> Iterator[MicroOp]:
        # Emission runs as one fused loop, because per-op helper
        # methods cost six-plus Python calls per micro-op, which
        # dominated trace generation.  The RNG draws are inlined too:
        # ``choice``/``randrange`` become :func:`_below` and
        # ``expovariate(l)`` becomes ``-log(1.0 - random()) / l``, the
        # exact expressions ``random.Random`` evaluates underneath, in
        # the same order, so streams are bit-identical (the sampled and
        # invariance goldens pin this).  Mutable generator state stays
        # on ``self`` so several interleaved iterators (PhasedWorkload)
        # keep working.
        profile = self.profile
        rng = self._rng
        rng_random = rng.random
        getrandbits = rng.getrandbits
        blocks = self._blocks
        mix_classes = self._mix_classes
        mix_cum = self._mix_cum
        mix_total = self._mix_total
        mix_hi = self._mix_hi
        recent_int = self._recent_int
        recent_fp = self._recent_fp
        loop_counters = self._loop_counters
        indep_frac = profile.independent_src_fraction
        dep_lambd = 1.0 / max(1.0, profile.dep_mean_distance)
        trip_lambd = 1.0 / max(1.0, profile.mean_loop_trip)
        is_fp_profile = profile.is_fp
        chase_frac = profile.pointer_chase_fraction
        hot_frac = profile.hot_fraction
        warm_cut = hot_frac + profile.warm_fraction
        hot_words = profile.hot_bytes // _WORD
        warm_words = profile.warm_bytes // _WORD
        hot_k = hot_words.bit_length()
        warm_k = warm_words.bit_length()
        int_pool_len = len(_INT_POOL)
        fp_pool_len = len(_FP_POOL)
        fp_body_classes = (OpClass.FPALU, OpClass.FPMUL, OpClass.FPDIV)
        load_cls, store_cls = OpClass.LOAD, OpClass.STORE
        branch_cls = OpClass.BRANCH
        # trusted construction for the high-volume op kinds: the fields
        # below satisfy MicroOp.__init__'s invariants by construction
        # (srcs already tuples, loads/stores always carry an address),
        # so the body sites bypass the validating constructor and assign
        # slots directly — identical attribute values, no call overhead
        uop_new = MicroOp.__new__
        load_flags = _CLASS_FLAGS[load_cls]
        store_flags = _CLASS_FLAGS[store_cls]
        branch_flags = _CLASS_FLAGS[branch_cls]

        index = 0
        while True:
            block = blocks[index]
            pc = block.base_pc
            for _ in range(block.body_len):
                op_class = mix_classes[bisect_right(
                    mix_cum, rng_random() * mix_total, 0, mix_hi)]
                if op_class is load_cls:
                    fp_dest = is_fp_profile and rng_random() < 0.55
                    if (self._chase_next_load
                            and self._last_load_dest is not None):
                        addr_reg = self._last_load_dest
                    elif rng_random() < indep_frac:
                        addr_reg = _INT_STABLE[
                            _below(getrandbits, _STABLE_N, _STABLE_K)]
                    elif not recent_int:
                        addr_reg = _INT_POOL[
                            _below(getrandbits, _POOL_N, _POOL_K)]
                    else:
                        distance = 1 + int(
                            -log(1.0 - rng_random()) / dep_lambd)
                        if distance > len(recent_int):
                            distance = len(recent_int)
                        addr_reg = recent_int[-distance]
                    if fp_dest:
                        dest = _FP_POOL[self._fp_rr % fp_pool_len]
                        self._fp_rr += 1
                    else:
                        dest = _INT_POOL[self._int_rr % int_pool_len]
                        self._int_rr += 1
                    roll = rng_random()
                    if roll < hot_frac:
                        addr = _HOT_BASE + _WORD * _below(
                            getrandbits, hot_words, hot_k)
                    elif roll < warm_cut:
                        addr = _WARM_BASE + _WORD * _below(
                            getrandbits, warm_words, warm_k)
                    else:
                        # cold: stream one cache line per access so every
                        # cold access misses all the way to memory
                        addr = self._cold_ptr
                        self._cold_ptr = addr + _LINE_BYTES
                    uop = uop_new(MicroOp)
                    uop.seq = self._seq
                    uop.pc = pc
                    uop.op_class = load_cls
                    uop.srcs = (addr_reg,)
                    uop.dest = dest
                    uop.mem_addr = addr
                    uop.taken = False
                    uop.target = None
                    (uop.fu_class, uop.is_load, uop.is_store, uop.is_mem,
                     uop.is_branch, uop.is_fp, uop.is_int) = load_flags
                    self._seq += 1
                    if fp_dest:
                        recent_fp.append(dest)
                        if len(recent_fp) > 64:
                            del recent_fp[0]
                    else:
                        self._last_load_dest = dest
                        recent_int.append(dest)
                        if len(recent_int) > 64:
                            del recent_int[0]
                    self._chase_next_load = rng_random() < chase_frac
                elif op_class is store_cls:
                    if rng_random() < indep_frac:
                        addr_reg = _INT_STABLE[
                            _below(getrandbits, _STABLE_N, _STABLE_K)]
                    elif not recent_int:
                        addr_reg = _INT_POOL[
                            _below(getrandbits, _POOL_N, _POOL_K)]
                    else:
                        distance = 1 + int(
                            -log(1.0 - rng_random()) / dep_lambd)
                        if distance > len(recent_int):
                            distance = len(recent_int)
                        addr_reg = recent_int[-distance]
                    fp_data = is_fp_profile and rng_random() < 0.5
                    if fp_data:
                        recent, pool, stable = (
                            recent_fp, _FP_POOL, _FP_STABLE)
                    else:
                        recent, pool, stable = (
                            recent_int, _INT_POOL, _INT_STABLE)
                    if rng_random() < indep_frac:
                        data_reg = stable[
                            _below(getrandbits, _STABLE_N, _STABLE_K)]
                    elif not recent:
                        data_reg = pool[_below(getrandbits, _POOL_N, _POOL_K)]
                    else:
                        distance = 1 + int(
                            -log(1.0 - rng_random()) / dep_lambd)
                        if distance > len(recent):
                            distance = len(recent)
                        data_reg = recent[-distance]
                    roll = rng_random()
                    if roll < hot_frac:
                        addr = _HOT_BASE + _WORD * _below(
                            getrandbits, hot_words, hot_k)
                    elif roll < warm_cut:
                        addr = _WARM_BASE + _WORD * _below(
                            getrandbits, warm_words, warm_k)
                    else:
                        addr = self._cold_ptr
                        self._cold_ptr = addr + _LINE_BYTES
                    uop = uop_new(MicroOp)
                    uop.seq = self._seq
                    uop.pc = pc
                    uop.op_class = store_cls
                    uop.srcs = (addr_reg, data_reg)
                    uop.dest = None
                    uop.mem_addr = addr
                    uop.taken = False
                    uop.target = None
                    (uop.fu_class, uop.is_load, uop.is_store, uop.is_mem,
                     uop.is_branch, uop.is_fp, uop.is_int) = store_flags
                    self._seq += 1
                else:
                    if op_class in fp_body_classes:
                        recent, pool, stable = (
                            recent_fp, _FP_POOL, _FP_STABLE)
                        fp = True
                    else:
                        recent, pool, stable = (
                            recent_int, _INT_POOL, _INT_STABLE)
                        fp = False
                    if rng_random() < indep_frac:
                        src_a = stable[
                            _below(getrandbits, _STABLE_N, _STABLE_K)]
                    elif not recent:
                        src_a = pool[_below(getrandbits, _POOL_N, _POOL_K)]
                    else:
                        distance = 1 + int(
                            -log(1.0 - rng_random()) / dep_lambd)
                        if distance > len(recent):
                            distance = len(recent)
                        src_a = recent[-distance]
                    if rng_random() < indep_frac:
                        src_b = stable[
                            _below(getrandbits, _STABLE_N, _STABLE_K)]
                    elif not recent:
                        src_b = pool[_below(getrandbits, _POOL_N, _POOL_K)]
                    else:
                        distance = 1 + int(
                            -log(1.0 - rng_random()) / dep_lambd)
                        if distance > len(recent):
                            distance = len(recent)
                        src_b = recent[-distance]
                    if fp:
                        dest = _FP_POOL[self._fp_rr % fp_pool_len]
                        self._fp_rr += 1
                    else:
                        dest = _INT_POOL[self._int_rr % int_pool_len]
                        self._int_rr += 1
                    recent.append(dest)
                    if len(recent) > 64:
                        del recent[0]
                    uop = uop_new(MicroOp)
                    uop.seq = self._seq
                    uop.pc = pc
                    uop.op_class = op_class
                    uop.srcs = (src_a, src_b)
                    uop.dest = dest
                    uop.mem_addr = None
                    uop.taken = False
                    uop.target = None
                    (uop.fu_class, uop.is_load, uop.is_store, uop.is_mem,
                     uop.is_branch, uop.is_fp, uop.is_int) = \
                        _CLASS_FLAGS[op_class]
                    self._seq += 1
                yield uop
                pc += 4

            # block-terminating branch
            fall_index = (block.index + 1) % len(blocks)
            pc = block.branch_pc
            kind = block.kind
            if kind == "jump":
                uop = uop_new(MicroOp)
                uop.seq = self._seq
                uop.pc = pc
                uop.op_class = branch_cls
                uop.srcs = ()
                uop.dest = None
                uop.mem_addr = None
                uop.taken = True
                uop.target = blocks[block.target_index].base_pc
                (uop.fu_class, uop.is_load, uop.is_store, uop.is_mem,
                 uop.is_branch, uop.is_fp, uop.is_int) = branch_flags
                self._seq += 1
                index = block.target_index
            elif kind == "random":
                taken = rng_random() < block.taken_prob
                # data-dependent branches compare a recent (often
                # load-fed) value
                if rng_random() < indep_frac:
                    src_a = _INT_STABLE[
                        _below(getrandbits, _STABLE_N, _STABLE_K)]
                elif not recent_int:
                    src_a = _INT_POOL[_below(getrandbits, _POOL_N, _POOL_K)]
                else:
                    distance = 1 + int(-log(1.0 - rng_random()) / dep_lambd)
                    if distance > len(recent_int):
                        distance = len(recent_int)
                    src_a = recent_int[-distance]
                if rng_random() < indep_frac:
                    src_b = _INT_STABLE[
                        _below(getrandbits, _STABLE_N, _STABLE_K)]
                elif not recent_int:
                    src_b = _INT_POOL[_below(getrandbits, _POOL_N, _POOL_K)]
                else:
                    distance = 1 + int(-log(1.0 - rng_random()) / dep_lambd)
                    if distance > len(recent_int):
                        distance = len(recent_int)
                    src_b = recent_int[-distance]
                uop = uop_new(MicroOp)
                uop.seq = self._seq
                uop.pc = pc
                uop.op_class = branch_cls
                uop.srcs = (src_a, src_b)
                uop.dest = None
                uop.mem_addr = None
                uop.taken = taken
                uop.target = (blocks[block.target_index].base_pc
                              if taken else None)
                (uop.fu_class, uop.is_load, uop.is_store, uop.is_mem,
                 uop.is_branch, uop.is_fp, uop.is_int) = branch_flags
                self._seq += 1
                index = block.target_index if taken else fall_index
            else:
                # loop back-edge: taken until the per-activation trip
                # count expires.  Loop branches compare the freshly-
                # incremented trip counter, which is always ready, so
                # they resolve promptly — unlike the data-dependent
                # "random" branches above.
                remaining = loop_counters.get(block.index)
                if remaining is None:
                    remaining = 1 + int(-log(1.0 - rng_random()) / trip_lambd)
                remaining -= 1
                srcs = (_INT_STABLE[
                    _below(getrandbits, _STABLE_N, _STABLE_K)],)
                uop = uop_new(MicroOp)
                uop.seq = self._seq
                uop.pc = pc
                uop.op_class = branch_cls
                uop.srcs = srcs
                uop.dest = None
                uop.mem_addr = None
                (uop.fu_class, uop.is_load, uop.is_store, uop.is_mem,
                 uop.is_branch, uop.is_fp, uop.is_int) = branch_flags
                if remaining > 0:
                    loop_counters[block.index] = remaining
                    uop.taken = True
                    uop.target = blocks[block.target_index].base_pc
                    self._seq += 1
                    index = block.target_index
                else:
                    loop_counters.pop(block.index, None)
                    uop.taken = False
                    uop.target = None
                    self._seq += 1
                    index = fall_index
            yield uop


def generate_trace(profile: BenchmarkProfile, count: int,
                   seed: Optional[int] = None) -> List[MicroOp]:
    """First ``count`` micro-ops of the profile's synthetic stream."""
    gen = iter(SyntheticTraceGenerator(profile, seed=seed))
    return [next(gen) for _ in range(count)]
