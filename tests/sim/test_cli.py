"""Command-line interface."""

import pytest

from repro.cli import main


def test_bench_lists_profiles(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    for name in ("gzip", "mcf", "lucas", "swim"):
        assert name in out
    assert "miss-bound" in out


def test_budget(capsys):
    assert main(["budget"]) == 0
    out = capsys.readouterr().out
    assert "pipeline latches" in out
    assert "60.0 W total" in out


def test_budget_deep(capsys):
    assert main(["budget", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "20-stage" in out


def test_run(capsys):
    assert main(["run", "gzip", "--policy", "dcg",
                 "--instructions", "1500"]) == 0
    out = capsys.readouterr().out
    assert "saved" in out
    assert "performance vs base: 100.0%" in out


def test_run_deep(capsys):
    assert main(["run", "gzip", "--deep", "--instructions", "1200"]) == 0
    assert "saved" in capsys.readouterr().out


def test_compare(capsys):
    assert main(["compare", "mcf", "--instructions", "1200"]) == 0
    out = capsys.readouterr().out
    for policy in ("base", "dcg", "plb-orig", "plb-ext"):
        assert policy in out


def test_compare_uses_runner_with_jobs_and_progress(capsys):
    """Regression: compare used to simulate serially outside the
    runner, ignoring --jobs, the caches, and the progress printer."""
    assert main(["compare", "gzip", "--instructions", "900",
                 "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "base" in captured.out and "dcg" in captured.out
    assert "cache miss" in captured.err
    assert "simulated" in captured.err


def test_compare_warm_disk_cache_skips_simulation(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["compare", "gzip", "--instructions", "900"]) == 0
    first = capsys.readouterr()
    assert main(["compare", "gzip", "--instructions", "900"]) == 0
    second = capsys.readouterr()
    assert "0 simulated" in second.err
    assert "cache hit (disk)" in second.err
    assert first.out == second.out


@pytest.mark.parametrize("argv", [
    ["figure", "fig16", "--jobs", "0"],
    ["figure", "fig16", "--jobs", "-3"],
    ["compare", "gzip", "--jobs", "0"],
    ["report", "--jobs", "0"],
])
def test_non_positive_jobs_rejected_by_parser(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2           # argparse usage error
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "gzip", "--instructions", "0"],
    ["run", "gzip", "--instructions", "-500"],
    ["compare", "gzip", "--instructions", "0"],
    ["figure", "fig16", "--instructions", "-1"],
    ["report", "--instructions", "0"],
    ["submit", "gzip", "--instructions", "0"],
    ["serve", "--instructions", "0"],
])
def test_non_positive_instructions_rejected_by_parser(argv, capsys):
    """Regression: --instructions 0 used to reach ExperimentRunner
    (which raises) or the simulator (which silently defaulted)."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_bad_repro_jobs_env_is_a_clear_cli_error(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(SystemExit, match="REPRO_JOBS"):
        main(["figure", "fig16", "--instructions", "500"])
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(SystemExit, match="REPRO_JOBS"):
        main(["compare", "gzip", "--instructions", "500"])


def test_figure(capsys):
    assert main(["figure", "fig16", "--instructions", "1000"]) == 0
    out = capsys.readouterr().out
    assert "result bus power savings" in out
    assert "paper:" in out


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["run", "quake3"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["explode"])


def test_run_base_policy_simulates_once(monkeypatch, capsys):
    """Regression: --policy base used to run the same simulation twice."""
    from repro.sim.simulator import Simulator

    calls = []
    original = Simulator.run_benchmark

    def counted(self, benchmark, policy="base", **kwargs):
        calls.append(policy)
        return original(self, benchmark, policy, **kwargs)

    monkeypatch.setattr(Simulator, "run_benchmark", counted)
    assert main(["run", "gzip", "--policy", "base",
                 "--instructions", "800"]) == 0
    assert calls == ["base"]
    out = capsys.readouterr().out
    assert "performance vs base: 100.0%" in out


def test_run_non_base_policy_simulates_twice(monkeypatch):
    from repro.sim.simulator import Simulator

    calls = []
    original = Simulator.run_benchmark

    def counted(self, benchmark, policy="base", **kwargs):
        calls.append(policy)
        return original(self, benchmark, policy, **kwargs)

    monkeypatch.setattr(Simulator, "run_benchmark", counted)
    assert main(["run", "gzip", "--policy", "dcg",
                 "--instructions", "800"]) == 0
    assert calls == ["base", "dcg"]


def test_figure_with_jobs(capsys):
    assert main(["figure", "fig17", "--instructions", "500",
                 "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "8-stage vs 20-stage" in captured.out
    assert "cache miss" in captured.err
    assert "instr/s" in captured.err
    assert "simulated" in captured.err


def test_figure_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["figure", "fig17", "--instructions", "500", "--jobs", "0"])


def test_report_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "150")
    out = tmp_path / "EXPERIMENTS.md"
    assert main(["report", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# EXPERIMENTS")
    assert "fig17" in text
    assert "wall-clock" not in text          # file stays byte-deterministic
    assert "wall-clock" in capsys.readouterr().err


def test_report_warm_cache_skips_simulation(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "150")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cold = tmp_path / "cold.md"
    warm = tmp_path / "warm.md"
    assert main(["report", "--output", str(cold)]) == 0
    capsys.readouterr()
    assert main(["report", "--output", str(warm)]) == 0
    err = capsys.readouterr().err
    assert "0 simulated" in err
    assert "cache hit (disk)" in err
    assert cold.read_text() == warm.read_text()
