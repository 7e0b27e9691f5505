"""Sampled-path golden: the trace stream and the fast-forward, pinned.

``golden/sampled.json`` holds two things the full-run goldens do not
cover:

* a SHA-256 over the first 2000 micro-ops of every profile's synthetic
  stream, at the profile's own seed and at seed 12345 — this pins every
  RNG draw the generator makes, on every supported Python version;
* the serialised aggregate of three interval-sampled runs, whose cache
  hits, misses and writebacks and whose mispredict rate are driven
  mostly by the functional fast-forward between windows.

If a deliberate model change moves these numbers, regenerate with
``python tests/integration/test_sampled_golden.py`` and say so in the
commit message; never regenerate to paper over an accidental diff.
"""

import hashlib
import json
import os
from itertools import islice

import pytest

from repro.sim.cache import result_to_dict
from repro.sim.sampling import SampledRun
from repro.workloads import SPEC2000, SyntheticTraceGenerator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "sampled.json")

#: micro-ops hashed per (profile, seed) stream
STREAM_OPS = 2000
#: the second seed every profile's stream is pinned at (``None`` is the
#: profile's own seed)
STREAM_SEEDS = (None, 12345)
#: (benchmark, policy, instructions, plan) of the pinned sampled runs
SAMPLED_RUNS = (
    ("gzip", "dcg", 40_000, "4x1000"),
    ("mcf", "plb-ext", 40_000, "4x1000"),
    ("applu", "base", 40_000, "4x1000"),
)


def _load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def stream_digest(benchmark, seed):
    """Hex SHA-256 over the first :data:`STREAM_OPS` micro-ops."""
    digest = hashlib.sha256()
    generator = SyntheticTraceGenerator(SPEC2000[benchmark], seed=seed)
    for op in islice(generator, STREAM_OPS):
        record = (op.seq, op.pc, int(op.op_class), list(op.srcs), op.dest,
                  op.mem_addr, op.taken, op.target)
        digest.update(json.dumps(record, separators=(",", ":")).encode()
                      + b"\n")
    return digest.hexdigest()


def _stream_key(benchmark, seed):
    return f"{benchmark}@{'profile' if seed is None else seed}"


def sampled_result(benchmark, policy, instructions, plan):
    """JSON-normalised aggregate of one sampled run."""
    result = SampledRun(benchmark, policy, instructions, plan).run()
    return json.loads(json.dumps(result_to_dict(result)))


def _run_key(benchmark, policy, instructions, plan):
    return f"{benchmark}/{policy}/{instructions}/{plan}"


@pytest.mark.parametrize("profile", sorted(SPEC2000))
@pytest.mark.parametrize("seed", STREAM_SEEDS,
                         ids=lambda s: "profile-seed" if s is None else str(s))
def test_stream_digest_matches_golden(profile, seed):
    expected = _load_golden()["streams"][_stream_key(profile, seed)]
    assert stream_digest(profile, seed) == expected, (
        f"{profile} seed={seed}: synthetic micro-op stream drifted")


@pytest.mark.parametrize("case", SAMPLED_RUNS,
                         ids=lambda c: _run_key(*c))
def test_sampled_result_matches_golden(case):
    expected = _load_golden()["sampled"][_run_key(*case)]
    assert sampled_result(*case) == expected, (
        f"{_run_key(*case)}: sampled aggregate drifted")


def test_golden_covers_every_profile():
    streams = _load_golden()["streams"]
    assert set(streams) == {_stream_key(b, s) for b in SPEC2000
                            for s in STREAM_SEEDS}


if __name__ == "__main__":   # pragma: no cover - golden regeneration aid
    golden = {
        "streams": {_stream_key(b, s): stream_digest(b, s)
                    for b in sorted(SPEC2000) for s in STREAM_SEEDS},
        "sampled": {_run_key(*c): sampled_result(*c) for c in SAMPLED_RUNS},
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
