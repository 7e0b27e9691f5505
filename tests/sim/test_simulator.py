"""Simulator facade."""

import pytest

from repro.isa import assemble, trace_program
from repro.sim import Simulator, make_policy
from repro.sim.configs import default_instructions
from repro.workloads import get_profile
from repro.workloads.kernels import vector_sum


@pytest.fixture(scope="module")
def sim():
    return Simulator()


def test_make_policy_names():
    assert make_policy("base").name == "base"
    assert make_policy("dcg").name == "dcg"
    assert make_policy("dcg-delayed-store").store_policy == "delayed"
    assert make_policy("plb-orig").extended is False
    assert make_policy("plb-ext").extended is True
    with pytest.raises(ValueError):
        make_policy("magic")


def test_run_benchmark_result_fields(sim):
    result = sim.run_benchmark("gzip", "base", instructions=1500)
    assert result.benchmark == "gzip"
    assert result.policy == "base"
    assert result.instructions == 1500
    assert result.cycles > 0
    assert result.ipc == pytest.approx(1500 / result.cycles)
    assert result.base_power == pytest.approx(60.0)
    assert result.average_power == pytest.approx(60.0)   # no gating
    assert result.total_saving == 0.0
    assert result.stats is not None


def test_run_benchmark_accepts_profile_object(sim):
    result = sim.run_benchmark(get_profile("swim"), "base",
                               instructions=1000)
    assert result.benchmark == "swim"


def test_dcg_saves_power_at_no_cycle_cost(sim):
    base = sim.run_benchmark("gzip", "base", instructions=2000)
    dcg = sim.run_benchmark("gzip", "dcg", instructions=2000)
    assert dcg.cycles == base.cycles
    assert dcg.total_saving > 0.10
    assert dcg.average_power < base.average_power
    assert dcg.fu_toggles > 0
    assert dcg.power_delay < base.power_delay


def test_plb_records_mode_cycles(sim):
    result = sim.run_benchmark("mcf", "plb-ext", instructions=2000)
    assert sum(result.mode_cycles.values()) == result.cycles
    # mcf idles: most cycles must be in a low-power mode
    low = result.mode_cycles[4] + result.mode_cycles[6]
    assert low > result.cycles * 0.5


def test_power_delay_saving_metric(sim):
    base = sim.run_benchmark("gzip", "base", instructions=2000)
    dcg = sim.run_benchmark("gzip", "dcg", instructions=2000)
    # no slowdown: power-delay saving equals power saving
    assert dcg.power_delay_saving(base) == pytest.approx(dcg.total_saving)


def test_run_trace_with_kernel(sim):
    program = assemble(vector_sum(64))
    result = sim.run_trace(trace_program(program), "dcg", name="vector_sum")
    assert result.benchmark == "vector_sum"
    assert result.instructions > 300
    assert 0.0 < result.total_saving < 1.0


def test_seed_changes_trace(sim):
    a = sim.run_benchmark("gzip", "base", instructions=1500, seed=1)
    b = sim.run_benchmark("gzip", "base", instructions=1500, seed=2)
    assert a.cycles != b.cycles




def test_default_instructions_env(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_INSTRUCTIONS", raising=False)
    assert default_instructions(1234) == 1234
    monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "777")
    assert default_instructions(1234) == 777
    monkeypatch.setenv("REPRO_SIM_INSTRUCTIONS", "-5")
    with pytest.raises(ValueError):
        default_instructions()
