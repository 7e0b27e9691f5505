"""Per-cycle golden: the cycle core's full CycleUsage stream, pinned.

``golden/usage_streams.json`` holds, per regime, the cycle count and a
SHA-256 over the canonical JSON of every :class:`CycleUsage` — so it
pins spill drain order, squash filtering and every per-cycle field, not
just end-of-run totals — plus a digest of a wrong-path pipetrace.
Canonical JSON writes ``FUClass`` values as plain ints, so the digests
are the same on every supported Python version.

If a deliberate model change moves these streams, regenerate with
``python tests/integration/test_usage_golden.py`` and say so in the
commit message; never regenerate to paper over an accidental diff.
"""

import hashlib
import json
import os

import pytest

from repro.core import DCGPolicy, NoGatingPolicy
from repro.pipeline import MachineConfig, Pipeline, render_pipetrace
from repro.pipeline.usage import CycleUsage
from repro.trace import FUClass, TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "usage_streams.json")

#: name -> (benchmark, policy class, config, instructions, seed): the
#: regimes that stress the event calendars hardest
REGIMES = {
    "wrong-path": ("gcc", DCGPolicy,
                   MachineConfig(model_wrong_path=True), 2000, 7),
    "result-buses-2": ("gzip", NoGatingPolicy,
                       MachineConfig(result_buses=2), 2000, 7),
    "result-buses-1-wrong-path": (
        "gcc", NoGatingPolicy,
        MachineConfig(result_buses=1, model_wrong_path=True), 2000, None),
    "result-buses-2-wrong-path": (
        "gcc", NoGatingPolicy,
        MachineConfig(result_buses=2, model_wrong_path=True), 3000, None),
}


def _canonical(value):
    if isinstance(value, dict):
        return {_canonical(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return int(value) if isinstance(value, FUClass) else value


def _run(regime, observe=None, capture=0):
    benchmark, policy_cls, config, instructions, seed = REGIMES[regime]
    generator = SyntheticTraceGenerator(get_profile(benchmark), seed=seed)
    pipe = Pipeline(config, TraceStream(iter(generator), limit=instructions),
                    policy_cls())
    generator.prewarm(pipe.hierarchy)
    if observe is not None:
        pipe.add_observer(observe)
    pipe.capture_ops(capture)
    pipe.run(max_instructions=instructions)
    return pipe


def usage_digest(regime):
    """``{"cycles": N, "sha256": hex}`` of one regime's usage stream."""
    digest = hashlib.sha256()

    def observe(usage, decision):
        record = {name: _canonical(getattr(usage, name))
                  for name in CycleUsage.__slots__}
        digest.update(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")

    pipe = _run(regime, observe)
    return {"cycles": pipe.stats.cycles, "sha256": digest.hexdigest()}


def pipetrace_digest():
    pipe = _run("wrong-path", capture=64)
    text = render_pipetrace(pipe.captured_ops, max_cycles=400)
    return {"ops": len(pipe.captured_ops),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_usage_stream_matches_golden(regime):
    assert usage_digest(regime) == _load_golden()["usage"][regime]


def test_pipetrace_matches_golden():
    assert pipetrace_digest() == _load_golden()["pipetrace"]


def test_golden_covers_every_regime():
    assert set(_load_golden()["usage"]) == set(REGIMES)


if __name__ == "__main__":   # pragma: no cover - golden regeneration aid
    golden = {"usage": {regime: usage_digest(regime)
                        for regime in sorted(REGIMES)},
              "pipetrace": pipetrace_digest()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
