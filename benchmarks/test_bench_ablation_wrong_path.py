"""Ablation: the wrong-path approximation (DESIGN.md §7).

The headline figures model a misprediction as a fetch redirect penalty
without executing wrong-path instructions.  This bench turns full
wrong-path modelling on (fetch, dispatch, issue, squash with rename
checkpoint restore) and measures how much the approximation moves
DCG's numbers — the justification for using it by default.
"""

from repro.pipeline import MachineConfig, Pipeline
from repro.power import BlockPowers, PowerAccountant
from repro.core import DCGPolicy
from repro.trace import TraceStream
from repro.workloads import SyntheticTraceGenerator, get_profile

_BENCHES = ("gzip", "gcc", "twolf", "mesa")


def _dcg_saving(benchmark, wrong_path, n):
    config = MachineConfig(model_wrong_path=wrong_path)
    generator = SyntheticTraceGenerator(get_profile(benchmark))
    pipe = Pipeline(config, TraceStream(iter(generator), limit=n),
                    DCGPolicy())
    generator.prewarm(pipe.hierarchy)
    accountant = PowerAccountant(BlockPowers(config))
    pipe.add_observer(accountant)
    stats = pipe.run(max_instructions=n)
    return accountant.total_saving_fraction, stats


def test_bench_ablation_wrong_path(benchmark, out_dir):
    n = 5000

    def run():
        rows = []
        for bench in _BENCHES:
            off, __ = _dcg_saving(bench, False, n)
            on, stats = _dcg_saving(bench, True, n)
            rows.append((bench, off, on, stats.wrong_path_fetched))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["DCG saving: redirect-penalty approximation vs full "
             "wrong-path modelling:"]
    deltas = []
    for bench, off, on, fetched in rows:
        deltas.append(off - on)
        lines.append(f"  {bench:8s} approx={off:6.1%}  wrong-path={on:6.1%} "
                     f" delta={off - on:+.2%}  (wp ops fetched: {fetched})")
    text = "\n".join(lines)
    (out_dir / "ablation-wrong-path.txt").write_text(text + "\n")
    print()
    print(text)
    # the approximation must be conservative and small
    assert all(d >= -0.005 for d in deltas)
    assert max(abs(d) for d in deltas) < 0.02
