"""Multiprocessing grid executor: determinism, fallback, knobs."""

import pytest

from repro.sim import RunSpec, default_jobs, execute_specs
from repro.sim.parallel import RunReport

_SPECS = [RunSpec("baseline", bench, policy, 700)
          for bench in ("gzip", "mcf")
          for policy in ("base", "dcg")]


def _signature(result):
    return (result.benchmark, result.policy, result.cycles,
            result.average_power, result.total_saving)


def test_serial_execution_order():
    results = execute_specs(_SPECS, jobs=1)
    assert [r.benchmark for r in results] == [s.benchmark for s in _SPECS]
    assert [r.policy for r in results] == [s.policy for s in _SPECS]


def test_parallel_matches_serial():
    serial = execute_specs(_SPECS, jobs=1)
    parallel = execute_specs(_SPECS, jobs=3)
    assert [_signature(r) for r in serial] == \
           [_signature(r) for r in parallel]


def test_default_calibration_identical_serial_vs_pool():
    """With ``calibration`` omitted both paths must resolve the same
    default up front — historically only the pool substituted one —
    so jobs=1 and jobs=2 runs are byte-identical."""
    from repro.sim.cache import result_to_dict
    serial = execute_specs(_SPECS, calibration=None, jobs=1)
    pooled = execute_specs(_SPECS, calibration=None, jobs=2)
    assert [result_to_dict(r) for r in serial] == \
           [result_to_dict(r) for r in pooled]


def test_explicit_seed_changes_the_run():
    spec = RunSpec("baseline", "gzip", "base", 700)
    reseeded = RunSpec("baseline", "gzip", "base", 700, seed=12345)
    a, b = execute_specs([spec, reseeded], jobs=1)
    assert a.cycles != b.cycles


def test_single_spec_short_circuits_to_serial():
    (result,) = execute_specs([RunSpec("baseline", "gzip", "dcg", 700)],
                              jobs=8)
    assert result.policy == "dcg"


def test_progress_reports(monkeypatch):
    reports = []
    execute_specs(_SPECS[:2], jobs=1, progress=reports.append)
    assert len(reports) == 2
    assert all(isinstance(r, RunReport) for r in reports)
    assert all(r.source == "run" and r.seconds > 0.0 for r in reports)
    assert reports[0].instructions_per_second > 0.0


def test_report_rate_clamps_sub_resolution_timings():
    """Cache hits can be timed below the clock's resolution; the rate
    must clamp to a positive floor instead of reporting 0 instr/s."""
    spec = RunSpec("baseline", "gzip", "base", 700)
    assert RunReport(spec, 0.0, "memory").instructions_per_second > 0.0
    assert RunReport(spec, -1.0, "disk").instructions_per_second > 0.0
    report = RunReport(spec, 2.0, "run")
    assert report.instructions_per_second == pytest.approx(350.0)


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()
