"""Arbitrary request bodies never escape the service's parsers.

``POST /v1/runs`` hands each run object to
:meth:`~repro.service.server.SimulationService.parse_run`, and
``GET /v1/runs/<id>/result`` hands its ``?timeout=`` value to
:func:`~repro.service.server.parse_wait_timeout`.  The HTTP handler
answers a ``ValueError`` from either with a 400; any other exception
escapes the handler, which drops the connection without a response.
So for any input each parser must either accept it — a spec that
:func:`~repro.service.jobs.validate_spec` passes, a finite wait — or
raise ``ValueError``.
"""

import math
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import SimulationService
from repro.service.jobs import validate_spec
from repro.service.server import RUN_FIELDS, parse_wait_timeout
from repro.sim import ResultCache
from repro.sim.parallel import RunSpec
from repro.sim.simulator import BUILTIN_POLICIES
from repro.workloads import ALL_BENCHMARKS

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)

#: per known field, plausible values (valid and near-miss) or any JSON
FIELDS = {
    "benchmark": st.sampled_from(sorted(ALL_BENCHMARKS) + ["quake3", ""]),
    "policy": st.sampled_from(sorted(BUILTIN_POLICIES) + ["warp-drive"]),
    "tag": st.sampled_from([
        "baseline", "deep", "fu=round-robin", "int_alus=2", "int_alus=0",
        "int_alus=-1", "int_alus=x", "width=4", "width=0", "window=64",
        "window=0", "ports=1", "ports=0", "hyper", "width="]),
    "instructions": st.integers(-10, 10**6) | st.floats(),
    "seed": st.integers(-2**70, 2**70) | st.floats(),
    "sample": st.sampled_from(["4x50", "2x100", "0x10", "4x0", "-1x5",
                               "x", "4x", "10x1000", "", "1x1x1"]),
}


@pytest.fixture(scope="module")
def service():
    # stateless: no queue journal and no checkpoint store
    return SimulationService(instructions=400, cache=ResultCache(""),
                             state_dir="", checkpoint_dir="")


def _check_parse(service, fields):
    try:
        spec = service.parse_run(fields)
    except ValueError:
        return
    assert isinstance(spec, RunSpec)
    validate_spec(spec)
    assert set(fields) <= set(RUN_FIELDS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(body=JSON)
def test_any_json_value_parses_or_raises_value_error(service, body):
    _check_parse(service, body)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(known=st.fixed_dictionaries(
           {}, optional={key: strategy | JSON
                         for key, strategy in FIELDS.items()}),
       junk=st.dictionaries(st.text(max_size=12), JSON, max_size=2))
def test_run_objects_parse_or_raise_value_error(service, known, junk):
    _check_parse(service, {**junk, **known})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=st.text() | st.floats().map(repr) | st.integers().map(str))
def test_wait_timeout_is_finite_or_value_error(raw):
    try:
        seconds = parse_wait_timeout(raw)
    except ValueError:
        return
    assert math.isfinite(seconds)
    assert 0.0 <= seconds <= threading.TIMEOUT_MAX
