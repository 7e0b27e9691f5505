"""Property-based whole-pipeline invariants.

Hypothesis drives the synthetic workload generator across its parameter
space; for every generated workload the pipeline must commit the whole
trace, respect capacity bounds, and keep DCG's determinism check silent.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core import DCGPolicy
from repro.pipeline import MachineConfig, Pipeline
from repro.trace import TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

from ..conftest import CycleRecorder

_BASES = ("gzip", "mcf", "swim", "mesa")


@st.composite
def workloads(draw):
    base = get_profile(draw(st.sampled_from(_BASES)))
    hot = draw(st.floats(0.3, 0.99))
    cold = draw(st.floats(0.0, 1.0 - hot))
    warm = 1.0 - hot - cold
    return replace(
        base,
        seed=draw(st.integers(0, 2 ** 16)),
        dep_mean_distance=draw(st.floats(1.0, 30.0)),
        independent_src_fraction=draw(st.floats(0.0, 0.9)),
        pointer_chase_fraction=draw(st.floats(0.0, 0.6)),
        random_branch_fraction=draw(st.floats(0.0, 0.4)),
        mean_loop_trip=draw(st.floats(2.0, 80.0)),
        hot_fraction=hot, warm_fraction=warm, cold_fraction=cold,
    )


@settings(max_examples=12, deadline=None)
@given(profile=workloads(), n=st.integers(200, 900))
def test_pipeline_invariants_hold_for_any_workload(profile, n):
    policy = DCGPolicy(verify=True)   # raises on any determinism break
    generator = SyntheticTraceGenerator(profile)
    config = MachineConfig()
    pipe = Pipeline(config, TraceStream(iter(generator), limit=n), policy)
    generator.prewarm(pipe.hierarchy)

    recorder = CycleRecorder()
    pipe.add_observer(recorder)
    stats = pipe.run(max_instructions=n)
    assert stats.committed == n
    violations = []
    for usage in recorder.usages:
        if usage.issued > config.issue_width:
            violations.append(("issue width", usage.cycle))
        if usage.window_occupancy > config.window_size:
            violations.append(("window", usage.cycle))
        if usage.lsq_occupancy > config.lsq_size:
            violations.append(("lsq", usage.cycle))
        if usage.dcache_ports_used > config.dcache_ports:
            violations.append(("ports", usage.cycle))
        if usage.result_bus_used > config.result_buses:
            violations.append(("buses", usage.cycle))
    assert violations == []
    assert stats.cycles >= n / config.issue_width
