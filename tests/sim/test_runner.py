"""Experiment runner caching and configuration tags."""

import pytest

from repro.core import DCGPolicy
from repro.sim import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instructions=1200)


def test_results_are_cached(runner):
    a = runner.run("gzip", "dcg")
    b = runner.run("gzip", "dcg")
    assert a is b


def test_distinct_policies_not_conflated(runner):
    base = runner.base("gzip")
    dcg = runner.dcg("gzip")
    assert base is not dcg
    assert base.policy == "base" and dcg.policy == "dcg"


def test_config_tags(runner):
    alu8 = runner.run("gzip", "base", tag="int_alus=8")
    alu4 = runner.run("gzip", "base", tag="int_alus=4")
    assert alu8 is not alu4
    sim8 = runner.simulator("int_alus=8")
    from repro.trace import FUClass
    assert sim8.config.fu_counts[FUClass.INT_ALU] == 8


def test_deep_tag(runner):
    deep = runner.simulator("deep")
    assert deep.config.depth.total_stages == 20


def test_unknown_tag(runner):
    with pytest.raises(ValueError, match="unknown configuration tag"):
        runner.simulator("quantum")


def test_policy_factory_for_custom_policies(runner):
    result = runner.run("gzip", "dcg-no-latches",
                        policy_factory=lambda: DCGPolicy(gate_latches=False))
    assert result.family_savings["latches"] <= 0.0 + 1e-9
    # cached under the custom name
    again = runner.run("gzip", "dcg-no-latches")
    assert again is result


def test_plb_helpers(runner):
    assert runner.plb_orig("gzip").policy == "plb-orig"
    assert runner.plb_ext("gzip").policy == "plb-ext"


def test_zero_instructions_rejected():
    with pytest.raises(ValueError, match="instructions must be positive"):
        ExperimentRunner(instructions=0)


def test_negative_instructions_rejected():
    with pytest.raises(ValueError, match="instructions must be positive"):
        ExperimentRunner(instructions=-5)


def test_policy_factory_rejected_for_builtin_names(runner):
    with pytest.raises(ValueError, match="reserved"):
        runner.run("gzip", "dcg",
                   policy_factory=lambda: DCGPolicy(gate_latches=False))


def test_plb_helpers_accept_tags(runner):
    deep = runner.plb_ext("gzip", tag="deep")
    assert deep is runner.run("gzip", "plb-ext", tag="deep")
    assert deep is not runner.plb_ext("gzip")
    assert runner.plb_orig("gzip", tag="deep") is \
        runner.run("gzip", "plb-orig", tag="deep")


def test_run_many_returns_request_order(runner):
    requests = [("gzip", "dcg"), ("mcf", "base"),
                ("gzip", "dcg", "deep"), ("gzip", "dcg")]
    results = runner.run_many(requests)
    assert [r.benchmark for r in results] == ["gzip", "mcf", "gzip", "gzip"]
    assert results[0] is results[3]          # duplicates share one run
    assert results[0] is runner.run("gzip", "dcg")
    assert results[2] is runner.run("gzip", "dcg", tag="deep")


def test_prefetch_warms_the_memo(runner):
    runner.prefetch([("vpr", "base"), ("vpr", "dcg")])
    assert runner.cached(runner._spec("vpr", "base", "baseline"))[1] == \
        "memory"
    assert runner.cached(runner._spec("vpr", "dcg", "baseline"))[1] == \
        "memory"


def test_disk_cache_shared_across_runners(tmp_path):
    from repro.sim import ResultCache
    root = str(tmp_path / "cache")
    first = ExperimentRunner(instructions=900, cache=ResultCache(root))
    hot = first.run("gzip", "dcg")
    assert first.cache.stores == 1
    second = ExperimentRunner(instructions=900, cache=ResultCache(root))
    replayed = second.run("gzip", "dcg")
    assert second.cache.hits == 1
    assert (replayed.cycles, replayed.average_power) == \
        (hot.cycles, hot.average_power)


def test_factory_runs_stay_out_of_the_disk_cache(tmp_path):
    from repro.sim import ResultCache
    runner = ExperimentRunner(
        instructions=900, cache=ResultCache(str(tmp_path / "cache")))
    runner.run("gzip", "dcg-no-latches",
               policy_factory=lambda: DCGPolicy(gate_latches=False))
    assert runner.cache.stores == 0


def test_run_many_parallel_matches_serial(tmp_path):
    requests = [("gzip", "base"), ("gzip", "dcg"), ("mcf", "dcg")]
    serial = ExperimentRunner(instructions=700).run_many(requests)
    parallel = ExperimentRunner(instructions=700, jobs=2).run_many(requests)
    for s, p in zip(serial, parallel):
        assert (s.cycles, s.average_power) == (p.cycles, p.average_power)


def test_cached_walks_memory_then_disk(tmp_path):
    from repro.sim import ResultCache
    root = str(tmp_path / "cache")
    first = ExperimentRunner(instructions=900, cache=ResultCache(root))
    spec = first._spec("gzip", "dcg", "baseline")
    assert first.cached(spec) is None      # cold everywhere
    hot = first.run("gzip", "dcg")
    result, source = first.cached(spec)
    assert source == "memory" and result is hot
    second = ExperimentRunner(instructions=900, cache=ResultCache(root))
    result, source = second.cached(spec)
    assert source == "disk" and result.cycles == hot.cycles
    # the disk hit is promoted, so the next lookup is a memory hit
    assert second.cached(spec)[1] == "memory"


def test_memoise_spec_feeds_both_cache_layers(tmp_path):
    from repro.sim import ResultCache
    root = str(tmp_path / "cache")
    runner = ExperimentRunner(instructions=900, cache=ResultCache(root))
    spec = runner._spec("gzip", "dcg", "baseline")
    result = ExperimentRunner(instructions=900).run("gzip", "dcg")
    runner.memoise_spec(spec, result)
    assert runner.cache.stores == 1
    assert runner.cached(spec)[1] == "memory"
    fresh = ExperimentRunner(instructions=900, cache=ResultCache(root))
    assert fresh.cached(spec)[1] == "disk"


def test_remote_executor_receives_only_the_misses():
    calls = []

    class FakeRemote:
        def run_specs(self, specs):
            calls.append(list(specs))
            local = ExperimentRunner(instructions=700)
            return [local.run(s.benchmark, s.policy, s.tag) for s in specs]

    runner = ExperimentRunner(instructions=700, remote=FakeRemote())
    warm = runner.run("gzip", "base")         # miss -> remote
    results = runner.run_many([("gzip", "base"), ("gzip", "dcg")])
    assert results[0] is warm                 # memory hit, not resent
    sent = [(s.benchmark, s.policy) for batch in calls for s in batch]
    assert sent == [("gzip", "base"), ("gzip", "dcg")]


def test_remote_progress_reports_honest_batch_totals():
    """A remote batch is one round-trip: every spec's report must carry
    the whole batch's elapsed time and the batch size, never a
    fabricated per-spec average."""

    class FakeRemote:
        def run_specs(self, specs):
            local = ExperimentRunner(instructions=700)
            return [local.run(s.benchmark, s.policy, s.tag) for s in specs]

    reports = []
    runner = ExperimentRunner(instructions=700, remote=FakeRemote(),
                              progress=reports.append)
    runner.run_many([("gzip", "base"), ("gzip", "dcg"), ("applu", "base")])
    remote = [r for r in reports if r.source == "remote"]
    assert len(remote) == 3
    # all three specs share the same measured round-trip...
    assert len({r.seconds for r in remote}) == 1
    # ...and declare how many specs that measurement covers
    assert all(r.batch_size == 3 for r in remote)


def test_local_reports_default_to_batch_size_one():
    reports = []
    runner = ExperimentRunner(instructions=700, progress=reports.append)
    runner.run("gzip", "base")
    assert reports and all(r.batch_size == 1 for r in reports)


def test_lookups_journal_and_report_each_source(tmp_path):
    """``run`` and ``run_many`` resolve through ``cached``: memory hits
    are journaled but print no progress, disk hits do both, misses
    journal once per distinct spec, and factory runs look in memory
    only."""
    from repro.obs import configure_journal, read_events
    from repro.sim import ResultCache
    root = str(tmp_path / "cache")
    ExperimentRunner(instructions=700, cache=ResultCache(root)).run(
        "gzip", "base")
    path = str(tmp_path / "events.jsonl")
    configure_journal(path=path)
    try:
        reports = []
        runner = ExperimentRunner(instructions=700, cache=ResultCache(root),
                                  progress=reports.append)
        runner.run("gzip", "dcg")
        results = runner.run_many([("gzip", "dcg"), ("gzip", "base"),
                                   ("mcf", "base"), ("mcf", "base"),
                                   ("gzip", "base")])
        for _ in range(2):
            runner.run("gzip", "dcg-no-latches",
                       policy_factory=lambda: DCGPolicy(gate_latches=False))
    finally:
        configure_journal()
    lookups = [(e["kind"], e.get("layer"), e["benchmark"], e["policy"])
               for e in read_events(path) if e["kind"].startswith("cache.")]
    assert lookups == [
        ("cache.miss", None, "gzip", "dcg"),
        ("cache.hit", "memory", "gzip", "dcg"),
        ("cache.hit", "disk", "gzip", "base"),
        ("cache.miss", None, "mcf", "base"),
        ("cache.hit", "memory", "gzip", "base"),
        ("cache.hit", "memory", "gzip", "dcg-no-latches"),
    ]
    assert [(r.spec.benchmark, r.spec.policy, r.source) for r in reports] \
        == [("gzip", "dcg", "run"), ("gzip", "base", "disk"),
            ("mcf", "base", "run"), ("gzip", "dcg-no-latches", "run")]
    assert results[2] is results[3] and results[1] is results[4]
