"""On-disk result cache: fingerprints, round-trips, corruption."""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.power import PowerCalibration
from repro.sim import (Simulator, baseline_config, config_from_tag,
                       deep_pipeline_config)
from repro.sim.cache import (CACHE_VERSION, ResultCache, _jsonable,
                             fingerprint, result_from_dict, result_to_dict,
                             spec_fingerprint)
from repro.sim.parallel import RunSpec
from repro.workloads import SPEC2000, get_profile


@pytest.fixture(scope="module")
def result():
    """One PLB run: exercises stats, mode_cycles, family savings."""
    return Simulator().run_benchmark("gzip", "plb-ext", instructions=800)


# -- fingerprints -----------------------------------------------------------

def test_fingerprint_is_stable():
    args = (baseline_config(), get_profile("gzip"), "dcg", 8000)
    assert fingerprint(*args) == fingerprint(*args)


def test_fingerprint_separates_axes():
    profile = get_profile("gzip")
    base = fingerprint(baseline_config(), profile, "dcg", 8000)
    assert fingerprint(deep_pipeline_config(), profile, "dcg", 8000) != base
    assert fingerprint(baseline_config(), profile, "base", 8000) != base
    assert fingerprint(baseline_config(), profile, "dcg", 4000) != base
    assert fingerprint(baseline_config(), get_profile("mcf"),
                       "dcg", 8000) != base
    assert fingerprint(baseline_config(), profile, "dcg", 8000,
                       seed=7) != base


def test_spec_fingerprint_isolates_sample_plans():
    plain = spec_fingerprint(RunSpec("baseline", "gzip", "dcg", 2000))
    sampled = spec_fingerprint(RunSpec("baseline", "gzip", "dcg", 2000,
                                       sample="4x100"))
    other = spec_fingerprint(RunSpec("baseline", "gzip", "dcg", 2000,
                                     sample="5x100"))
    assert len({plain, sampled, other}) == 3


def test_spec_fingerprint_keys_empty_sample_as_full_run():
    """An empty plan runs as a full run; keying it apart filed the same
    run under two fingerprints and simulated it twice."""
    full = RunSpec("baseline", "gzip", "dcg", 2000)
    assert spec_fingerprint(RunSpec("baseline", "gzip", "dcg", 2000,
                                    sample="")) == spec_fingerprint(full)
    assert spec_fingerprint(full) == fingerprint(
        baseline_config(), get_profile("gzip"), "dcg", 2000)


def _reference_fingerprint(config, profile, policy, instructions,
                           calibration=None, seed=None, sample=None):
    """The fingerprint as first defined: one ``json.dumps`` of the whole
    ``_jsonable`` payload, every object walked afresh."""
    payload = {
        "version": CACHE_VERSION,
        "config": _jsonable(config),
        "profile": _jsonable(profile),
        "policy": policy,
        "instructions": instructions,
        "calibration": _jsonable(calibration or PowerCalibration()),
        "seed": seed,
    }
    if sample is not None:
        payload["sample"] = sample
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: one tag of every family ``config_from_tag`` accepts
TAG_FAMILIES = ("baseline", "deep", "int_alus=4", "fu=round-robin",
                "width=4", "window=64", "ports=1")


@pytest.mark.parametrize("tag", TAG_FAMILIES)
def test_fingerprint_matches_reference_across_tag_space(tag):
    """Per-object encodings spliced into one blob hash exactly as the
    whole-payload dump did, for every tag family x profile x plan x
    calibration, so no cache entry filed by an older tree is orphaned."""
    calibrations = (None, PowerCalibration(total_watts=45.0,
                                           leakage_fraction=0.1))
    for name in sorted(SPEC2000):
        profile = get_profile(name)
        for sample in (None, "4x500"):
            for calibration in calibrations:
                spec = RunSpec(tag, name, "dcg", 4000, profile.seed, sample)
                assert spec_fingerprint(spec, calibration) == \
                    _reference_fingerprint(config_from_tag(tag), profile,
                                           "dcg", 4000, calibration,
                                           profile.seed, sample)


def test_changed_config_is_reencoded():
    """A config edited with ``dataclasses.replace`` (a new object) or in
    place (a frozen config's dict mutated) never reuses an old
    encoding."""
    profile = get_profile("gzip")
    config = baseline_config()
    before = fingerprint(config, profile, "dcg", 8000)
    wider = dataclasses.replace(config, window_size=256)
    assert fingerprint(wider, profile, "dcg", 8000) == \
        _reference_fingerprint(wider, profile, "dcg", 8000) != before
    assert fingerprint(config, profile, "dcg", 8000) == before
    unit = next(iter(config.fu_counts))
    config.fu_counts[unit] += 1
    assert fingerprint(config, profile, "dcg", 8000) == \
        _reference_fingerprint(config, profile, "dcg", 8000) != before


def test_encoding_memo_is_bounded(monkeypatch):
    from repro.sim import cache
    monkeypatch.setattr(cache, "ENCODINGS_KEPT", 4)
    profile = get_profile("gzip")
    for size in range(32, 48):
        config = dataclasses.replace(baseline_config(), window_size=size)
        assert fingerprint(config, profile, "base", 1000) == \
            _reference_fingerprint(config, profile, "base", 1000)
        assert len(cache._ENCODINGS) <= 4


def test_encoding_memo_under_racing_threads(monkeypatch):
    """Service threads fingerprint concurrently through the lock-free
    memo: with a tiny bound and a short switch interval, every
    fingerprint still matches the reference and the bound holds."""
    import sys
    import threading
    from repro.sim import cache
    monkeypatch.setattr(cache, "ENCODINGS_KEPT", 3)
    profile = get_profile("mcf")
    configs = [dataclasses.replace(baseline_config(), window_size=size)
               for size in range(32, 44)]
    expected = [_reference_fingerprint(c, profile, "dcg", 500)
                for c in configs]
    wrong = []

    def hammer(offset):
        for round_ in range(10):
            for i in range(len(configs)):
                j = (i + offset + round_) % len(configs)
                if fingerprint(configs[j], profile, "dcg", 500) != \
                        expected[j]:
                    wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(cache._ENCODINGS) <= 3


# -- serialisation ----------------------------------------------------------

def test_result_roundtrip(result):
    back = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
    assert back.benchmark == result.benchmark
    assert back.policy == result.policy
    assert back.cycles == result.cycles
    assert back.average_power == result.average_power
    assert back.family_savings == result.family_savings
    assert back.mode_cycles == result.mode_cycles
    assert back.fu_toggles == result.fu_toggles
    # stats survive with enum-keyed tables intact
    assert back.stats.ipc == result.stats.ipc
    assert back.stats.commit_class_counts == result.stats.commit_class_counts
    assert back.stats.fu_utilization == result.stats.fu_utilization
    assert back.stats.cache_stats == result.stats.cache_stats


# -- the store --------------------------------------------------------------

def test_get_put_roundtrip(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    key = fingerprint(baseline_config(), get_profile("gzip"),
                      "plb-ext", 800)
    assert cache.get(key) is None
    cache.put(key, result)
    assert cache.stores == 1
    loaded = cache.get(key)
    assert loaded is not None
    assert loaded.cycles == result.cycles
    assert cache.hits == 1 and cache.misses == 1


def test_disabled_without_root_or_env(monkeypatch, result):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    cache = ResultCache()
    assert not cache.enabled
    cache.put("deadbeef", result)          # no-op, no crash
    assert cache.get("deadbeef") is None
    # a disabled cache can't miss — counting these as misses inflated
    # the miss count and dragged the reported hit ratio toward zero
    assert cache.misses == 0
    assert cache.disabled_lookups == 1


def test_empty_root_disables(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert not ResultCache("").enabled


def test_env_var_sets_root(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache()
    assert cache.enabled and cache.root == str(tmp_path)


def test_corrupt_entry_deleted_and_recomputed(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    key = "ab" + "0" * 62
    cache.put(key, result)
    path = cache.path(key)
    with open(path, "w") as handle:
        handle.write("{ not json")
    assert cache.get(key) is None           # miss, not a crash
    assert not os.path.exists(path)          # corrupt file was dropped


def test_schema_mismatch_is_a_miss(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    key = "cd" + "0" * 62
    cache.put(key, result)
    path = cache.path(key)
    with open(path, "w") as handle:
        json.dump({"benchmark": "gzip"}, handle)   # missing fields
    assert cache.get(key) is None
    assert not os.path.exists(path)


def test_clear(tmp_path, result):
    cache = ResultCache(str(tmp_path))
    for prefix in ("aa", "bb"):
        cache.put(prefix + "0" * 62, result)
    assert cache.clear() == 2
    assert cache.get("aa" + "0" * 62) is None
