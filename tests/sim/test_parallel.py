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


# -- tasks and timing groups ------------------------------------------------

def _one_benchmark_grid(instructions=300):
    """The report grid's eight cells for gzip: seven distinct runs on
    five machines, six of them distinct timings."""
    from repro.analysis.experiments import full_grid
    return [RunSpec(tag, bench, policy, instructions)
            for bench, policy, tag in full_grid() if bench == "gzip"]


def _count_work(monkeypatch):
    """Counters of pipelines built, prewarms and trace draws."""
    from repro.pipeline import core
    from repro.workloads.synthetic import SyntheticTraceGenerator
    counts = {"pipelines": 0, "prewarms": 0, "draws": 0}

    def counting(name, real):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return real(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(core.Pipeline, "__init__",
                        counting("pipelines", core.Pipeline.__init__))
    monkeypatch.setattr(SyntheticTraceGenerator, "prewarm",
                        counting("prewarms", SyntheticTraceGenerator.prewarm))
    monkeypatch.setattr(SyntheticTraceGenerator, "__iter__",
                        counting("draws", SyntheticTraceGenerator.__iter__))
    return counts


def test_plan_tasks_groups_by_benchmark_input():
    from repro.sim.parallel import plan_tasks
    specs = _one_benchmark_grid() + [
        RunSpec("baseline", "mcf", "dcg", 300),
        RunSpec("baseline", "gzip", "dcg", 300, seed=5),
        RunSpec("ports=1", "gzip", "dcg", 300),
        RunSpec("baseline", "gzip", "dcg", 400, sample="2x100"),
        RunSpec("baseline", "gzip", "dcg", 400, sample="2x100")]
    n = len(_one_benchmark_grid())
    assert plan_tasks(specs) == [list(range(n)), [n], [n + 1], [n + 2],
                                 [n + 3], [n + 4]]


def test_a_task_prewarms_and_draws_once(monkeypatch):
    """gzip's grid cells: six pipelines, one prewarm, one trace draw."""
    counts = _count_work(monkeypatch)
    reports = []
    execute_specs(_one_benchmark_grid(), jobs=1, progress=reports.append)
    assert counts == {"pipelines": 6, "prewarms": 1, "draws": 1}
    assert len(reports) == 8
    assert {(r.source, r.batch_size) for r in reports} == {("run", 8)}
    assert len({r.seconds for r in reports}) == 1


def test_long_budgets_draw_a_trace_per_timing_group(monkeypatch):
    """Above the sharing bound no op list is held: each timing group
    draws its own seeded generator."""
    from repro.sim import parallel
    monkeypatch.setattr(parallel, "SHARED_TRACE_MAX_OPS", 299)
    counts = _count_work(monkeypatch)
    execute_specs(_one_benchmark_grid(), jobs=1)
    assert counts == {"pipelines": 6, "prewarms": 1, "draws": 6}


def test_timing_neutral_reads_the_bound_constraints():
    from repro.sim.configs import config_from_tag
    from repro.sim.simulator import BUILTIN_POLICIES, make_policy, \
        timing_neutral
    neutral = set()
    for name in BUILTIN_POLICIES:
        for tag in ("baseline", "deep", "width=4", "ports=1"):
            config = config_from_tag(tag)
            policy = make_policy(name)
            policy.bind(config)
            if timing_neutral(policy, config):
                neutral.add(name)
    assert neutral == {"base", "dcg", "dcg+iq"}


@pytest.mark.parametrize("rider", ["plb-ext", "dcg-delayed-store"])
def test_a_policy_that_changes_timing_cannot_ride(rider):
    from repro.sim.checkpoint import PausableRun
    from repro.sim.simulator import PolicyRider, make_policy
    with pytest.raises(ValueError, match="timing"):
        PausableRun("gzip", "base", 300,
                    riders=[PolicyRider(make_policy(rider))])
    with pytest.raises(ValueError, match="timing"):
        PausableRun("gzip", rider, 300,
                    riders=[PolicyRider(make_policy("dcg"))])


def test_rider_results_equal_solo_runs():
    from repro.sim.cache import result_to_dict
    from repro.sim.checkpoint import PausableRun
    from repro.sim.simulator import PolicyRider, make_policy
    run = PausableRun("mcf", "base", 500, riders=[
        PolicyRider(make_policy(name)) for name in ("dcg", "dcg+iq")])
    run.step()
    shared = run.results()
    for policy, result in zip(("base", "dcg", "dcg+iq"), shared):
        solo = PausableRun("mcf", policy, 500)
        solo.step()
        assert result_to_dict(result) == result_to_dict(solo.result())
    assert shared[0].stats is not shared[1].stats
