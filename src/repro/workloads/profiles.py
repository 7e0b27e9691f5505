"""SPEC CPU2000-like benchmark profiles.

The paper runs pre-compiled Alpha SPEC2000 binaries under Wattch.  This
reproduction has no Alpha binaries, so each benchmark is replaced by a
:class:`BenchmarkProfile` — a parameter set for the synthetic trace
generator in :mod:`repro.workloads.synthetic` that reproduces the
characteristics the paper's results depend on:

* instruction mix (integer vs floating-point vs memory vs branch work),
* instruction-level parallelism, via the register dependency-distance
  distribution and pointer-chasing load fraction,
* branch predictability (fraction of dynamic branches that are
  data-dependent/random vs loop-structured),
* data-cache behaviour, via a three-region working-set model (hot region
  resident in L1, warm region resident in L2, cold region streaming
  through memory).

The per-benchmark parameters are tuned so that simulated utilisations
match what the paper reports in §5: integer-unit utilisation ≈ 35 % for
INT programs, FP-unit utilisation ≈ 23 % for FP programs with integer
units busy ≈ 25 % of cycles, memory-port utilisation ≈ 40 %, result-bus
utilisation ≈ 40 %, and `mcf`/`lucas` stalling heavily on cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Tuple

from ..trace.uop import OpClass

__all__ = [
    "BenchmarkProfile",
    "SPEC2000",
    "INT_BENCHMARKS",
    "FP_BENCHMARKS",
    "ALL_BENCHMARKS",
    "get_profile",
]


@dataclass(frozen=True)
class BenchmarkProfile:
    """Synthetic-workload parameters for one benchmark.

    Attributes
    ----------
    name / suite:
        Benchmark name and suite (``"int"`` or ``"fp"``).
    mix:
        Non-branch instruction-class mix; fractions sum to 1 together
        with ``branch_fraction``.
    branch_fraction:
        Fraction of dynamic instructions that are branches.
    random_branch_fraction:
        Of dynamic conditional branches, the fraction coming from
        data-dependent (history-unpredictable) static branches; the rest
        are loop-style and highly predictable.
    random_branch_taken_prob:
        Taken probability of the data-dependent branches.
    mean_loop_trip:
        Mean iteration count of synthetic inner loops (geometric).
    dep_mean_distance:
        Mean dynamic distance to a source operand's producer; smaller
        means longer dependence chains and lower ILP.
    pointer_chase_fraction:
        Fraction of loads whose address depends on the previous load's
        result (serialises memory access, as in ``mcf``).
    hot/warm/cold fractions:
        Working-set model: probability that a memory access falls in the
        L1-resident hot region, the L2-resident warm region, or the
        streaming cold region (L2 misses).
    hot_bytes / warm_bytes:
        Sizes of the hot and warm regions.
    store_fraction:
        Of memory operations, the fraction that are stores.
    """

    name: str
    suite: str
    mix: Mapping[OpClass, float]
    branch_fraction: float
    random_branch_fraction: float = 0.15
    random_branch_taken_prob: float = 0.5
    mean_loop_trip: float = 12.0
    dep_mean_distance: float = 5.0
    #: probability that a source operand reads a long-stable value (a
    #: loop-invariant, stack pointer, or immediate-derived register) and
    #: is therefore always ready; raises ILP the way real code does
    independent_src_fraction: float = 0.35
    pointer_chase_fraction: float = 0.0
    hot_fraction: float = 0.90
    warm_fraction: float = 0.08
    cold_fraction: float = 0.02
    hot_bytes: int = 16 * 1024
    warm_bytes: int = 512 * 1024
    store_fraction: float = 0.30
    code_blocks: int = 192
    seed: int = 0

    def __post_init__(self) -> None:
        total = sum(self.mix.values()) + self.branch_fraction
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: mix + branch_fraction must sum to 1, got {total}")
        regions = self.hot_fraction + self.warm_fraction + self.cold_fraction
        if abs(regions - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: working-set fractions must sum to 1, got {regions}")
        if self.suite not in ("int", "fp"):
            raise ValueError(f"{self.name}: suite must be 'int' or 'fp'")
        if min(self.hot_bytes, self.warm_bytes) < 8:
            # the generator draws word addresses from both regions
            raise ValueError(
                f"{self.name}: hot_bytes and warm_bytes must hold at "
                "least one 8-byte word")

    @property
    def is_fp(self) -> bool:
        return self.suite == "fp"

    def with_seed(self, seed: int) -> "BenchmarkProfile":
        """Copy of the profile with a different generator seed."""
        return replace(self, seed=seed)


def _mix(ialu: float = 0.0, imul: float = 0.0, idiv: float = 0.0,
         fpalu: float = 0.0, fpmul: float = 0.0, fpdiv: float = 0.0,
         load: float = 0.0, store: float = 0.0) -> Dict[OpClass, float]:
    return {
        OpClass.IALU: ialu,
        OpClass.IMUL: imul,
        OpClass.IDIV: idiv,
        OpClass.FPALU: fpalu,
        OpClass.FPMUL: fpmul,
        OpClass.FPDIV: fpdiv,
        OpClass.LOAD: load,
        OpClass.STORE: store,
    }


def _norm(mix: Dict[OpClass, float], branch: float) -> Dict[OpClass, float]:
    """Scale the non-branch mix so everything sums to exactly 1."""
    scale = (1.0 - branch) / sum(mix.values())
    return {cls: frac * scale for cls, frac in mix.items()}


def _int_profile(name: str, *, seed: int, branch: float = 0.13,
                 ialu: float = 0.52, imul: float = 0.012, idiv: float = 0.001,
                 load: float = 0.235, store: float = 0.10,
                 fpalu: float = 0.0, fpmul: float = 0.0,
                 **kw) -> BenchmarkProfile:
    mix = _norm(_mix(ialu=ialu, imul=imul, idiv=idiv, fpalu=fpalu,
                     fpmul=fpmul, load=load, store=store), branch)
    kw.setdefault("independent_src_fraction", 0.75)
    kw.setdefault("dep_mean_distance", 16.0)
    kw.setdefault("mean_loop_trip", 32.0)
    kw.setdefault("random_branch_fraction", 0.10)
    kw.setdefault("hot_fraction", 0.988)
    kw.setdefault("warm_fraction", 0.010)
    kw.setdefault("cold_fraction", 0.002)
    return BenchmarkProfile(name=name, suite="int", mix=mix,
                            branch_fraction=branch, seed=seed, **kw)


def _fp_profile(name: str, *, seed: int, branch: float = 0.045,
                ialu: float = 0.24, imul: float = 0.004,
                fpalu: float = 0.26, fpmul: float = 0.13, fpdiv: float = 0.008,
                load: float = 0.25, store: float = 0.075,
                **kw) -> BenchmarkProfile:
    mix = _norm(_mix(ialu=ialu, imul=imul, fpalu=fpalu, fpmul=fpmul,
                     fpdiv=fpdiv, load=load, store=store), branch)
    kw.setdefault("independent_src_fraction", 0.65)
    kw.setdefault("random_branch_fraction", 0.03)
    kw.setdefault("mean_loop_trip", 64.0)
    kw.setdefault("dep_mean_distance", 18.0)
    kw.setdefault("hot_fraction", 0.96)
    kw.setdefault("warm_fraction", 0.030)
    kw.setdefault("cold_fraction", 0.010)
    return BenchmarkProfile(name=name, suite="fp", mix=mix,
                            branch_fraction=branch, seed=seed, **kw)


#: the nine SPEC2000 integer benchmarks used in the evaluation
INT_BENCHMARKS: Tuple[str, ...] = (
    "gzip", "vpr", "gcc", "mcf", "parser",
    "perlbmk", "vortex", "bzip2", "twolf",
)

#: the nine SPEC2000 floating-point benchmarks used in the evaluation
FP_BENCHMARKS: Tuple[str, ...] = (
    "wupwise", "swim", "mgrid", "applu", "mesa",
    "art", "equake", "ammp", "lucas",
)

ALL_BENCHMARKS: Tuple[str, ...] = INT_BENCHMARKS + FP_BENCHMARKS

SPEC2000: Dict[str, BenchmarkProfile] = {
    # ---- integer suite ---------------------------------------------------
    "gzip": _int_profile(
        "gzip", seed=101, branch=0.12, random_branch_fraction=0.08),
    "vpr": _int_profile(
        "vpr", seed=102, branch=0.12, fpalu=0.04,
        random_branch_fraction=0.14, dep_mean_distance=12.0),
    "gcc": _int_profile(
        "gcc", seed=103, branch=0.16, random_branch_fraction=0.12,
        code_blocks=512, mean_loop_trip=20.0,
        hot_fraction=0.975, warm_fraction=0.020, cold_fraction=0.005),
    "mcf": _int_profile(
        # mcf: pointer-chasing over a graph far larger than L2 — the
        # paper singles it out for extreme miss-driven stalls.
        "mcf", seed=104, branch=0.135, load=0.30, store=0.075,
        dep_mean_distance=3.5, pointer_chase_fraction=0.45,
        random_branch_fraction=0.22, independent_src_fraction=0.40,
        mean_loop_trip=12.0,
        hot_fraction=0.30, warm_fraction=0.25, cold_fraction=0.45),
    "parser": _int_profile(
        "parser", seed=105, branch=0.15, random_branch_fraction=0.14,
        pointer_chase_fraction=0.08, dep_mean_distance=12.0,
        hot_fraction=0.975, warm_fraction=0.020, cold_fraction=0.005),
    "perlbmk": _int_profile(
        # perlbmk: high integer utilisation, essentially no FP work —
        # DCG gates its FPUs ~100 % of cycles, PLB cannot (§5.2).
        "perlbmk", seed=106, branch=0.145, ialu=0.55, load=0.24,
        random_branch_fraction=0.08),
    "vortex": _int_profile(
        "vortex", seed=107, branch=0.14, load=0.27, store=0.12,
        random_branch_fraction=0.06),
    "bzip2": _int_profile(
        "bzip2", seed=108, branch=0.11, random_branch_fraction=0.10,
        mean_loop_trip=40.0),
    "twolf": _int_profile(
        "twolf", seed=109, branch=0.13, fpalu=0.03,
        random_branch_fraction=0.15, dep_mean_distance=12.0,
        hot_fraction=0.975, warm_fraction=0.020, cold_fraction=0.005),
    # ---- floating-point suite --------------------------------------------
    "wupwise": _fp_profile(
        "wupwise", seed=201, fpmul=0.17, fpalu=0.24),
    "swim": _fp_profile(
        # swim: streaming grid sweeps with working sets past L2
        "swim", seed=202, fpalu=0.30, fpmul=0.12, load=0.27,
        dep_mean_distance=22.0,
        hot_fraction=0.82, warm_fraction=0.12, cold_fraction=0.06),
    "mgrid": _fp_profile(
        "mgrid", seed=203, fpalu=0.33, fpmul=0.11, load=0.28, store=0.05,
        dep_mean_distance=22.0,
        hot_fraction=0.90, warm_fraction=0.08, cold_fraction=0.02),
    "applu": _fp_profile(
        "applu", seed=204, fpalu=0.28, fpmul=0.14, fpdiv=0.012,
        hot_fraction=0.90, warm_fraction=0.08, cold_fraction=0.02),
    "mesa": _fp_profile(
        "mesa", seed=205, branch=0.085, ialu=0.34, fpalu=0.18, fpmul=0.10,
        random_branch_fraction=0.08, independent_src_fraction=0.70),
    "art": _fp_profile(
        # art: neural-net sweeps over matrices larger than L2
        "art", seed=206, fpalu=0.30, fpmul=0.12, load=0.28,
        dep_mean_distance=14.0,
        hot_fraction=0.72, warm_fraction=0.18, cold_fraction=0.10),
    "equake": _fp_profile(
        "equake", seed=207, branch=0.06, ialu=0.27, fpalu=0.24, fpmul=0.13,
        hot_fraction=0.92, warm_fraction=0.06, cold_fraction=0.02),
    "ammp": _fp_profile(
        "ammp", seed=208, fpalu=0.27, fpmul=0.14, fpdiv=0.015,
        hot_fraction=0.93, warm_fraction=0.05, cold_fraction=0.02),
    "lucas": _fp_profile(
        # lucas: FFT-style strides streaming far past L2 — with mcf, the
        # paper's top DCG saver because the pipeline idles on misses.
        "lucas", seed=209, fpalu=0.26, fpmul=0.16, load=0.28, store=0.09,
        dep_mean_distance=10.0, independent_src_fraction=0.45,
        hot_fraction=0.25, warm_fraction=0.25, cold_fraction=0.50),
}


def get_profile(name: str) -> BenchmarkProfile:
    """Profile for ``name``; raises ``KeyError`` listing valid names."""
    try:
        return SPEC2000[name]
    except KeyError:
        valid = ", ".join(sorted(SPEC2000))
        raise KeyError(f"unknown benchmark {name!r}; choose one of: {valid}") from None
