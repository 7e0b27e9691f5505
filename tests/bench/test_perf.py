"""Perf-regression harness: report shape, validation, and CLI plumbing."""

import copy
import json

import pytest

from repro.bench import (BenchCase, DEFAULT_CASES, SCHEMA_VERSION,
                         profile_case, run_bench, validate_report,
                         write_report)

#: tiny budget — these tests check shape, not speed
TINY = 1_500


@pytest.fixture(scope="module")
def report():
    return run_bench(instructions=TINY, tag="test")


def test_report_shape(report):
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["tag"] == "test"
    assert report["instructions_per_case"] == TINY
    assert report["repeats"] == 1
    assert len(report["results"]) == len(DEFAULT_CASES)
    labels = [(r["benchmark"], r["policy"]) for r in report["results"]]
    assert labels == [(c.benchmark, c.policy) for c in DEFAULT_CASES]
    assert report["totals"]["cases"] == len(DEFAULT_CASES)


def test_report_rates_are_consistent(report):
    for record in report["results"]:
        assert record["cycles"] > 0
        assert record["instructions"] > 0
        assert record["seconds"] > 0
        assert record["cycles_per_second"] == pytest.approx(
            record["cycles"] / record["seconds"])
        assert record["instructions_per_second"] == pytest.approx(
            record["instructions"] / record["seconds"])
    totals = report["totals"]
    assert totals["cycles"] == sum(r["cycles"] for r in report["results"])


def test_report_validates(report):
    validate_report(report)   # must not raise


def test_sampled_case_in_default_matrix(report):
    sampled = [r for r in report["results"] if "sample" in r]
    assert len(sampled) == 1
    record = sampled[0]
    assert record["sample"] == "3x300"
    assert record["sampled_instructions"] == 900
    assert record["instructions"] == TINY     # the budget it stands for
    case = [c for c in DEFAULT_CASES if c.sample][0]
    assert case.label == "gzip/dcg@3x300"


def test_progress_callback_sees_every_case():
    seen = []
    run_bench(instructions=TINY, cases=DEFAULT_CASES[:2], tag="p",
              progress=seen.append)
    assert [(r["benchmark"], r["policy"]) for r in seen] == [
        ("gzip", "base"), ("gzip", "dcg")]


def test_rejects_bad_budget_and_empty_cases():
    with pytest.raises(ValueError):
        run_bench(instructions=0)
    with pytest.raises(ValueError):
        run_bench(instructions=TINY, cases=())
    with pytest.raises(ValueError):
        run_bench(instructions=TINY, repeats=0)


def test_repeats_recorded():
    report = run_bench(instructions=TINY, cases=DEFAULT_CASES[:1],
                       tag="b", repeats=2)
    assert report["repeats"] == 2
    validate_report(report)


@pytest.mark.parametrize("mutate, message", [
    (lambda r: r.update(schema_version=99), "schema_version"),
    (lambda r: r.update(results=[]), "no results"),
    (lambda r: r["results"][0].pop("cycles_per_second"), "missing"),
    (lambda r: r["results"][0].update(cycles=0), "non-positive"),
    (lambda r: r["results"][0].update(seconds=0.0), "non-positive"),
    (lambda r: r["totals"].update(cases=99), "totals"),
    (lambda r: r.update(instructions_per_case=0), "instructions_per_case"),
    (lambda r: r.update(instructions_per_case="2k"), "instructions_per_case"),
    (lambda r: r["totals"].update(cycles=1), "totals.cycles"),
    (lambda r: r["totals"].update(seconds=1e9), "totals.seconds"),
    (lambda r: r["totals"].pop("seconds"), "totals.seconds"),
])
def test_validate_rejects_malformed(report, mutate, message):
    broken = copy.deepcopy(report)
    mutate(broken)
    with pytest.raises(ValueError, match=message):
        validate_report(broken)


def test_write_report_round_trips(report, tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    write_report(report, path)
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    validate_report(loaded)
    assert loaded["results"] == report["results"]


def test_write_report_refuses_malformed(report, tmp_path):
    broken = copy.deepcopy(report)
    broken["results"] = []
    path = tmp_path / "BENCH_bad.json"
    with pytest.raises(ValueError):
        write_report(broken, str(path))
    assert not path.exists()


def test_profile_case_reports_hot_functions():
    text = profile_case(BenchCase("gzip", "dcg"), instructions=TINY, top=10)
    assert "cumulative" in text
    # the per-cycle step must show up among the hottest functions
    assert "_step" in text


def test_profile_case_profiles_the_sampled_driver():
    """A sampled case must profile the sampling driver (fast-forward
    plus windows), not a full run of the same budget."""
    text = profile_case(BenchCase("gzip", "dcg", sample="3x300"),
                        instructions=TINY, top=40)
    assert "_fast_forward" in text
    assert "run_window" in text


def test_cli_bench_perf_writes_report(tmp_path, capsys):
    from repro.cli import main
    path = str(tmp_path / "BENCH_ci.json")
    assert main(["bench-perf", "--instructions", str(TINY),
                 "--tag", "ci", "--output", path]) == 0
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    validate_report(loaded)
    assert loaded["tag"] == "ci"
    out = capsys.readouterr().out
    assert "cyc/s" in out


def test_cli_profile_flag(tmp_path, capsys):
    from repro.cli import main
    assert main(["bench-perf", "--profile",
                 "--instructions", str(TINY)]) == 0
    assert "_step" in capsys.readouterr().out
