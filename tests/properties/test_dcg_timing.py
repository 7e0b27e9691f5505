"""DCG never costs a cycle, checked against an independent run.

The paper's §3 claim is that deterministic clock gating only reads
signals the machine already produces, so it cannot change timing.
The grid now lets DCG ride on the base policy's pipeline, where the
claim holds by construction; this suite keeps it tested.  For any of
the 18 benchmarks, a seed and a small machine perturbation, base and
DCG run as two separate :class:`~repro.sim.checkpoint.PausableRun` s
with an :class:`~repro.pipeline.verification.InvariantChecker` on
each.  Their cycles and statistics must be equal, and every DCG family
saving must lie in [0, 1].
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.pipeline import MachineConfig
from repro.pipeline.verification import InvariantChecker
from repro.sim.cache import result_to_dict
from repro.sim.checkpoint import PausableRun
from repro.sim.configs import config_from_tag
from repro.workloads import SPEC2000

INSTRUCTIONS = 2000


@st.composite
def machines(draw):
    """The baseline or the deep machine, with its issue width, integer
    ALUs, D-cache ports, result buses and wrong-path modelling drawn."""
    config = (config_from_tag("deep") if draw(st.booleans())
              else MachineConfig())
    width = draw(st.sampled_from((8, 6, 4)))
    config = replace(config, fetch_width=width, decode_width=width,
                     issue_width=width, commit_width=width,
                     result_buses=draw(st.integers(1, width)),
                     model_wrong_path=draw(st.booleans()))
    config = config.with_int_alus(draw(st.integers(2, 8)))
    l1d = replace(config.hierarchy.l1d, ports=draw(st.integers(1, 3)))
    return replace(config, hierarchy=replace(config.hierarchy, l1d=l1d))


def _run(program, policy, seed, config):
    checker = InvariantChecker(config)
    run = PausableRun(program, policy, INSTRUCTIONS, config=config,
                      seed=seed, observers=[checker])
    run.step()
    result = run.result()
    assert checker.clean and checker.cycles_checked == result.cycles
    return result


@settings(max_examples=12, deadline=None, derandomize=True)
@given(program=st.sampled_from(sorted(SPEC2000)),
       seed=st.integers(0, 2 ** 16), config=machines())
def test_dcg_costs_no_cycle_against_a_separate_base_run(program, seed,
                                                        config):
    base = _run(program, "base", seed, config)
    dcg = _run(program, "dcg", seed, config)
    assert dcg.cycles == base.cycles
    assert result_to_dict(dcg)["stats"] == result_to_dict(base)["stats"]
    for family, saving in dcg.family_savings.items():
        assert 0.0 <= saving <= 1.0, (family, saving)
