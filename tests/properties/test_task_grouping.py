"""Grouping a batch into tasks and timing groups changes no result.

:func:`~repro.sim.parallel.execute_specs` runs a batch as one task per
benchmark input and, inside a task, lets every timing-neutral policy
on one machine ride a shared pipeline with a prewarmed hierarchy copy
and, below :data:`~repro.sim.parallel.SHARED_TRACE_MAX_OPS`, a trace
drawn once.  For drawn batches — benchmarks, seeds, machine tags
(aliases included), all six policies, duplicates and a sampled spec —
every result must be byte-identical to simulating its spec alone, in
the serial loop and in the pool, with the trace shared and not.
"""

import os
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.pipeline import MachineConfig
from repro.sim import checkpoint, parallel
from repro.sim.cache import result_to_dict
from repro.sim.configs import config_from_tag
from repro.sim.parallel import RunSpec, execute_specs, simulate_spec
from repro.sim.simulator import BUILTIN_POLICIES
from repro.workloads import SPEC2000

INSTRUCTIONS = 600

#: lucas is the benchmark whose PLB leaves 8-wide issue within
#: ``INSTRUCTIONS``; a PLB or delayed-store rider then breaks it
_RIDER_TRAP = [RunSpec(tag, "lucas", policy, INSTRUCTIONS)
               for tag, policy in (("baseline", "base"),
                                   ("int_alus=6", "plb-orig"),
                                   ("baseline", "dcg-delayed-store"),
                                   ("baseline", "plb-ext"),
                                   ("int_alus=6", "dcg"))]

#: ``int_alus=6`` names the baseline machine; ``wrong-path`` is this
#: suite's own tag for the baseline with wrong-path modelling on
TAGS = ("baseline", "int_alus=6", "int_alus=4", "deep", "width=4",
        "ports=1", "wrong-path")


def _config_from_tag(tag):
    if tag == "wrong-path":
        return replace(MachineConfig(), model_wrong_path=True)
    return config_from_tag(tag)


@st.composite
def batches(draw):
    """A batch over one or two benchmarks, so cells share tasks and
    timing groups, with duplicates and one sampled spec."""
    benchmarks = draw(st.lists(st.sampled_from(sorted(SPEC2000)),
                               min_size=1, max_size=2, unique=True))
    cell = st.builds(RunSpec, tag=st.sampled_from(TAGS),
                     benchmark=st.sampled_from(benchmarks),
                     policy=st.sampled_from(BUILTIN_POLICIES),
                     instructions=st.just(INSTRUCTIONS),
                     seed=st.sampled_from((None, 7)))
    specs = draw(st.lists(cell, min_size=2, max_size=8))
    specs += draw(st.lists(st.sampled_from(specs), max_size=2))
    sampled = replace(draw(cell), instructions=2 * INSTRUCTIONS,
                      sample="2x100")
    specs.insert(draw(st.integers(0, len(specs))), sampled)
    return specs


@settings(max_examples=10, deadline=None, derandomize=True)
@given(specs=batches(), share_trace=st.booleans())
@example(specs=_RIDER_TRAP, share_trace=True)
def test_tasks_match_solo_runs(specs, share_trace):
    with ExitStack() as stack:
        # no checkpoint store: every plain spec here goes straight
        # through, and no sampled one is fingerprinted under the tag
        # only this suite knows
        stack.enter_context(mock.patch.dict(os.environ))
        os.environ.pop(checkpoint.CHECKPOINT_DIR_ENV_VAR, None)
        for module in (parallel, checkpoint):
            stack.enter_context(mock.patch.object(
                module, "config_from_tag", _config_from_tag))
        # the pool forks after the patches, so its workers see them too
        stack.enter_context(mock.patch.object(
            parallel, "SHARED_TRACE_MAX_OPS",
            INSTRUCTIONS if share_trace else INSTRUCTIONS - 1))
        expected = [result_to_dict(simulate_spec(spec)) for spec in specs]
        for jobs in (1, 2):
            got = [result_to_dict(result)
                   for result in execute_specs(specs, jobs=jobs)]
            assert got == expected, jobs
