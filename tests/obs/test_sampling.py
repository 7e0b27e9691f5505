"""Per-cycle histograms: opt-in, result-invariant, coherent."""

import json

from repro.obs import configure_journal, read_events
from repro.obs.histograms import CycleHistograms, histograms_enabled
from repro.pipeline import core
from repro.service.jobs import make_spec
from repro.sim import Simulator
from repro.sim import checkpoint
from repro.sim.parallel import RunSpec, simulate_spec

INSTRUCTIONS = 400


def test_sampling_enabled_env_parsing(monkeypatch):
    for off in ("", "0", "off", "false", "OFF", "False"):
        monkeypatch.setenv("REPRO_HISTOGRAMS", off)
        assert not histograms_enabled()
    for on in ("1", "yes", "on", "true"):
        monkeypatch.setenv("REPRO_HISTOGRAMS", on)
        assert histograms_enabled()
    monkeypatch.delenv("REPRO_HISTOGRAMS")
    assert not histograms_enabled()


def test_sampling_does_not_change_results(tmp_path, monkeypatch):
    """The bit-identity contract: attached histograms observe the
    pipeline, they never influence it."""
    spec = make_spec("gzip", "dcg", instructions=INSTRUCTIONS)
    plain = simulate_spec(spec)
    monkeypatch.setenv("REPRO_HISTOGRAMS", "1")
    configure_journal(path=str(tmp_path / "events.jsonl"))
    sampled = simulate_spec(spec)
    assert sampled.cycles == plain.cycles
    assert sampled.ipc == plain.ipc
    assert sampled.total_saving == plain.total_saving
    assert sampled.family_savings == plain.family_savings


def test_sample_event_histograms_are_coherent(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HISTOGRAMS", "1")
    path = tmp_path / "events.jsonl"
    configure_journal(path=str(path))
    spec = make_spec("gzip", "dcg", instructions=INSTRUCTIONS)
    result = simulate_spec(spec)
    events = list(read_events(str(path)))
    (sample,) = [e for e in events if e["kind"] == "sim.histograms"]
    assert sample["benchmark"] == "gzip" and sample["policy"] == "dcg"
    # every histogram partitions the same cycle count
    assert sample["cycles"] == result.cycles
    assert sum(sample["issued_hist"].values()) == result.cycles
    assert sum(sample["fu_busy_hist"].values()) == result.cycles
    assert sum(sample["window_occupancy_hist"].values()) == result.cycles
    assert sum(sample["lsq_occupancy_hist"].values()) == result.cycles
    # issued cycles account for every committed instruction (and
    # speculative issues on top)
    issued = sum(int(width) * count
                 for width, count in sample["issued_hist"].items())
    assert issued >= result.instructions
    assert sample["fetch_stall_cycles"] <= result.cycles
    gated = sample["gated_block_cycles"]
    assert set(gated) == {"fu", "latch", "dcache", "result_bus"}
    assert all(v >= 0 for v in gated.values())
    assert gated["fu"] > 0                       # DCG gates FUs on gzip
    json.dumps(sample)                           # JSON-encodable end to end


def test_no_sample_event_without_env(tmp_path):
    path = tmp_path / "events.jsonl"
    configure_journal(path=str(path))
    simulate_spec(make_spec("gzip", "dcg", instructions=INSTRUCTIONS))
    kinds = {e["kind"] for e in read_events(str(path))}
    assert "sim.start" in kinds and "sim.finish" in kinds
    assert "sim.histograms" not in kinds


def test_checkpointed_run_emits_no_empty_sample(tmp_path, monkeypatch):
    """A run the checkpointed strategy handles never hooks the
    histograms, so it must not report an all-zero ``sim.histograms``
    beside its real ``sim.finish``."""
    monkeypatch.setenv("REPRO_HISTOGRAMS", "1")
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    monkeypatch.setattr(checkpoint, "DEFAULT_CHUNK", 1000)
    path = tmp_path / "events.jsonl"
    configure_journal(path=str(path))
    result = simulate_spec(RunSpec("baseline", "gzip", "dcg", 4000))
    events = list(read_events(str(path)))
    (finish,) = [e for e in events if e["kind"] == "sim.finish"]
    assert finish["cycles"] == result.cycles > 0
    assert [e for e in events if e["kind"] == "sim.histograms"] == []


def test_sampler_summary_is_identical_with_skipping_off(monkeypatch):
    """Skipped idle spans reach the histograms through
    ``observe_span``; they must equal the cycle-by-cycle ones exactly."""
    summaries = []
    for skip in (True, False):
        monkeypatch.setattr(core, "SKIP_QUIESCENT", skip)
        histograms = CycleHistograms()
        Simulator().run_benchmark("mcf", "dcg", instructions=1500,
                                  observers=[histograms])
        summaries.append(histograms.summary())
    assert summaries[0] == summaries[1]
    assert summaries[0]["cycles"] > 1500        # mcf idles on misses


def test_specs_sharing_a_pipeline_journal_like_solo_runs(tmp_path,
                                                          monkeypatch):
    """Specs simulated as one task keep their own ``sim`` span,
    ``sim.start``/``sim.finish`` and ``sim.histograms``, with the same
    fields a solo run emits (wall-clock seconds aside)."""
    from repro.obs.tracing import span
    from repro.sim.parallel import execute_specs

    monkeypatch.setenv("REPRO_HISTOGRAMS", "1")
    specs = [RunSpec(tag, "gzip", policy, INSTRUCTIONS)
             for tag, policy in (("baseline", "base"),
                                 ("baseline", "plb-ext"),
                                 ("int_alus=6", "dcg"),
                                 ("baseline", "dcg+iq"))]
    volatile = {"ts", "pid", "trace_id", "span_id", "seconds"}

    def journaled(path, simulate):
        configure_journal(path=str(path))
        with span("test.root") as root:
            simulate()
        events = list(read_events(str(path)))
        fields = sorted(
            (e["kind"], e["policy"], sorted(
                (k, repr(v)) for k, v in e.items() if k not in volatile))
            for e in events if e["kind"].startswith("sim."))
        sims = [e for e in events
                if e["kind"] == "span" and e["name"] == "sim"]
        return fields, sims, root

    solo, _, _ = journaled(tmp_path / "solo.jsonl", lambda: [
        simulate_spec(spec) for spec in specs])
    shared, sims, root = journaled(tmp_path / "shared.jsonl",
                                   lambda: execute_specs(specs, jobs=1))
    assert shared == solo
    assert len(solo) == 3 * len(specs)
    assert len({e["span_id"] for e in sims}) == len(specs)
    assert {e["parent_span_id"] for e in sims} == {root.span_id}
