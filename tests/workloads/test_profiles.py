"""Benchmark profile registry and validation."""

import pytest

from repro.trace import OpClass
from repro.workloads import (
    ALL_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    SPEC2000,
    BenchmarkProfile,
    get_profile,
)


def test_registry_covers_both_suites():
    assert len(INT_BENCHMARKS) == 9
    assert len(FP_BENCHMARKS) == 9
    assert set(ALL_BENCHMARKS) == set(SPEC2000)


def test_suites_assigned_correctly():
    for name in INT_BENCHMARKS:
        assert SPEC2000[name].suite == "int", name
    for name in FP_BENCHMARKS:
        assert SPEC2000[name].suite == "fp", name


def test_mix_sums_to_one():
    for profile in SPEC2000.values():
        total = sum(profile.mix.values()) + profile.branch_fraction
        assert total == pytest.approx(1.0), profile.name


def test_working_set_fractions_sum_to_one():
    for profile in SPEC2000.values():
        regions = (profile.hot_fraction + profile.warm_fraction
                   + profile.cold_fraction)
        assert regions == pytest.approx(1.0), profile.name


def test_int_programs_have_negligible_fp_work():
    for name in ("gzip", "gcc", "mcf", "perlbmk", "vortex", "bzip2"):
        profile = SPEC2000[name]
        fp = sum(profile.mix.get(cls, 0.0)
                 for cls in (OpClass.FPALU, OpClass.FPMUL, OpClass.FPDIV))
        assert fp == 0.0, name


def test_fp_programs_have_substantial_fp_work():
    for name in FP_BENCHMARKS:
        profile = SPEC2000[name]
        fp = sum(profile.mix.get(cls, 0.0)
                 for cls in (OpClass.FPALU, OpClass.FPMUL, OpClass.FPDIV))
        assert fp > 0.2, name


def test_mcf_and_lucas_are_miss_heavy():
    # §5.1: mcf and lucas stall frequently on unusually high miss rates
    for name in ("mcf", "lucas"):
        profile = SPEC2000[name]
        assert profile.cold_fraction >= 0.4, name
    for name in ("gzip", "perlbmk"):
        assert SPEC2000[name].cold_fraction < 0.05, name


def test_get_profile_unknown():
    with pytest.raises(KeyError, match="unknown benchmark"):
        get_profile("doom3")


def test_with_seed_creates_variant():
    base = get_profile("gzip")
    variant = base.with_seed(999)
    assert variant.seed == 999
    assert variant.mix == base.mix
    assert base.seed != 999


def test_invalid_mix_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        BenchmarkProfile(name="bad", suite="int",
                         mix={OpClass.IALU: 0.5}, branch_fraction=0.1)


def test_invalid_regions_rejected():
    with pytest.raises(ValueError, match="fractions must sum"):
        BenchmarkProfile(name="bad", suite="int",
                         mix={OpClass.IALU: 0.9}, branch_fraction=0.1,
                         hot_fraction=0.5, warm_fraction=0.1,
                         cold_fraction=0.1)


def test_invalid_suite_rejected():
    with pytest.raises(ValueError, match="suite"):
        BenchmarkProfile(name="bad", suite="vector",
                         mix={OpClass.IALU: 0.9}, branch_fraction=0.1)


@pytest.mark.parametrize("region", ["hot_bytes", "warm_bytes"])
def test_region_smaller_than_a_word_rejected(region):
    with pytest.raises(ValueError, match="8-byte word"):
        BenchmarkProfile(name="bad", suite="int",
                         mix={OpClass.IALU: 0.9}, branch_fraction=0.1,
                         **{region: 4})
