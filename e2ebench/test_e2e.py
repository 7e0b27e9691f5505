"""Smoke test of the end-to-end benchmark at its tiny ``smoke`` budget.

Run from the repository root::

    python -m pytest e2ebench/test_e2e.py

Every workload runs traced and untraced.  The test checks the result
line against ``BENCHMARK.json``, that traced and untraced runs simulate
identical outputs, that the traced layers cover the simulation
workloads' wall time, and that a corrupted reference is caught.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_WORKLOADS = ("fullrun-ilp", "fullrun-membound", "sampled-1m")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, trace: int, tmp_path, *extra: str):
    report = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke",
         "--report", str(report),
         "--trace-file", str(tmp_path / f"{workload}-trace.json"), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(report.read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for path in SPEC["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_validate(workload, tmp_path):
    plain, plain_report = run(workload, 0, tmp_path)
    traced, traced_report = run(workload, 1, tmp_path)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        spec = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    shared = set(plain_report["outputs"]) & set(traced_report["outputs"])
    assert shared
    for key in shared:
        assert plain_report["outputs"][key] == traced_report["outputs"][key]
    if workload in SIM_WORKLOADS:
        covered = traced["metrics"]["trace.covered_share"]["value"]
        assert 0.9 <= covered <= 1.0 + 1e-9


@pytest.mark.parametrize("workload", ["fullrun-ilp", "grid-warm"])
def test_corrupted_reference_fails(workload, tmp_path):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    smoke = reference["smoke"]
    for cell in smoke["fullrun"].values():
        cell[0] += 1
    smoke["grid"]["paper_err_pts"] += 1.0
    corrupt = tmp_path / "reference.json"
    corrupt.write_text(json.dumps(reference))
    result, report = run(workload, 0, tmp_path, "--reference", str(corrupt))
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert report["failures"]
