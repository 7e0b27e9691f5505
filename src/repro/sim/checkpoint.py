"""The one run driver, and the versioned, fingerprinted checkpoints it
resumes from.

:func:`run_spec` takes every :class:`~repro.sim.parallel.RunSpec` to its
result through one step loop over one of two run kinds: a plain
:class:`PausableRun` steps in committed-instruction chunks, a sampled
:class:`~repro.sim.sampling.SampledRun` one window at a time.  Both
expose ``done``, ``step()``, ``progress``, ``state()``/``resume()`` and
``result()``; the driver snapshots between steps when a store is
enabled and the run is not :func:`straight_through`.

A checkpoint is a snapshot of a paused simulation — the whole pipeline
object graph (its columns and rings), the power accountant hanging off
its observer list, and the trace position — from which
:class:`PausableRun.resume` continues **bit-identically** to an
uninterrupted run.  Two properties of the cycle core make that exact
rather than approximate:

* ``Pipeline.run(max_instructions=N)`` stops purely on the committed
  count and ``SimStats.finalize`` is a pure derivation, so running in
  chunks steps the very same cycles as running straight through.
* The trace generator is seeded and deterministic, so its unpicklable
  generator iterator never needs to be serialised: the checkpoint
  records how many micro-ops were drawn and the restore path replays
  that many from a fresh seeded generator into
  :meth:`~repro.trace.stream.TraceStream.rebind`.

On-disk format: a magic prefix, then a pickled envelope
``{version, kind, key, meta, digest, payload}`` where ``payload`` is
the pickled state and ``digest`` its SHA-256 — a torn write, a stale
schema, or a snapshot saved under a different spec fingerprint all
read back as "no checkpoint" (deleted and recomputed), never as wrong
simulation results.  The directory comes from ``REPRO_CHECKPOINT_DIR``
(set automatically under ``repro serve --state-dir``), so worker
threads, forked compute children, and the parallel runner's pool all
inherit the same store for free.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from itertools import islice
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..core.interface import GatingPolicy
from ..memory.hierarchy import CacheHierarchy
from ..obs.events import get_journal
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats
from ..pipeline.usage import CycleObserver
from ..power.budget import BlockPowers, PowerCalibration
from ..trace.stream import TraceStream
from ..trace.uop import MicroOp
from ..workloads.profiles import BenchmarkProfile, get_profile
from ..workloads.synthetic import SyntheticTraceGenerator
from .cache import FileStore, spec_fingerprint
from .configs import baseline_config, config_from_tag, instruction_budget
from .simulator import PolicyRider, SimulationResult, assemble_run, \
    build_result, make_policy

__all__ = ["CHECKPOINT_DIR_ENV_VAR", "CHECKPOINT_VERSION", "CheckpointStore",
           "DEFAULT_CHUNK", "PausableRun", "SimulationInterrupted",
           "replay_source", "run_spec", "straight_through"]

#: environment variable naming the checkpoint directory; unset disables
#: checkpointing entirely (every store degrades to a no-op)
CHECKPOINT_DIR_ENV_VAR = "REPRO_CHECKPOINT_DIR"

#: committed instructions between checkpoints of a plain (non-sampled)
#: resumable run
DEFAULT_CHUNK = 250_000

#: bump when the snapshot state schema changes; older files then read
#: back as misses instead of unpickling into a surprise (v2: one cycle
#: core, no ``backend`` key; v3: cache sets map tag -> dirty bit, no
#: ``_Line`` objects; v4: the pipeline holds observer objects, not
#: bound ``observe`` methods)
CHECKPOINT_VERSION = 4

_MAGIC = b"REPROCKPT1\n"


class SimulationInterrupted(RuntimeError):
    """A resumable run was stopped between chunks/windows.

    State was already checkpointed; the service layer translates this
    into a job re-queue so the next attempt resumes where this one
    stopped.
    """


def replay_source(benchmark: str, seed: Optional[int],
                  drawn: int) -> Iterator[MicroOp]:
    """A fresh seeded trace source advanced past its first ``drawn`` ops
    (a snapshot's draw position); replay touches only the trace RNG."""
    source = iter(SyntheticTraceGenerator(get_profile(benchmark), seed=seed))
    for _ in islice(source, drawn):
        pass
    return source


# ---------------------------------------------------------------------------
# the on-disk store
# ---------------------------------------------------------------------------

class CheckpointStore(FileStore):
    """Integrity-checked checkpoint files, ``<root>/<key[:2]>/<key>.ckpt``.

    ``root`` defaults to ``$REPRO_CHECKPOINT_DIR``; without either the
    store is disabled and every operation is a cheap no-op.  Like the
    result cache, anything wrong with a file on read — truncation,
    corruption, a version or fingerprint mismatch — deletes it and
    reports a miss; saving never raises (failures bump ``dropped``).
    """

    ext = ".ckpt"
    env_var = CHECKPOINT_DIR_ENV_VAR

    def __init__(self, root: Optional[str] = None) -> None:
        super().__init__(root)
        self.saves = 0
        self.loads = 0
        self.misses = 0
        self.dropped = 0

    def save(self, key: str, kind: str, state: Dict[str, Any],
             meta: Optional[Dict[str, Any]] = None) -> bool:
        """Persist ``state`` under ``key``; False on any failure."""
        if not self.enabled:
            return False
        try:
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            envelope = {
                "version": CHECKPOINT_VERSION,
                "kind": kind,
                "key": key,
                "meta": dict(meta or {}),
                "digest": hashlib.sha256(payload).hexdigest(),
                "payload": payload,
            }
            self.write(key, _MAGIC, pickle.dumps(
                envelope, protocol=pickle.HIGHEST_PROTOCOL))
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError):
            self.dropped += 1
            return False
        self.saves += 1
        return True

    def _read_envelope(self, key: str) -> Optional[Dict[str, Any]]:
        def decode(data: bytes) -> Dict[str, Any]:
            if not data.startswith(_MAGIC):
                raise ValueError("bad magic")
            envelope = pickle.loads(memoryview(data)[len(_MAGIC):])
            if (not isinstance(envelope, dict)
                    or envelope.get("version") != CHECKPOINT_VERSION
                    or envelope.get("key") != key):
                raise ValueError("stale or mismatched envelope")
            payload = envelope["payload"]
            if hashlib.sha256(payload).hexdigest() != envelope["digest"]:
                raise ValueError("digest mismatch")
            return envelope
        return self.read(key, decode)

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """The checkpoint's ``meta`` dict (plus ``kind``) without
        unpickling the state payload, or None."""
        if not self.enabled:
            return None
        envelope = self._read_envelope(key)
        if envelope is None:
            return None
        return dict(envelope["meta"], kind=envelope["kind"])

    def load(self, key: str,
             kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Verified state dict for ``key``, or None on any miss."""
        if not self.enabled:
            return None
        envelope = self._read_envelope(key)
        if envelope is None or (kind is not None
                                and envelope["kind"] != kind):
            self.misses += 1
            return None
        try:
            state = pickle.loads(envelope["payload"])
        except Exception:                    # noqa: BLE001 - any unpickle
            self.discard(key)
            self.misses += 1
            return None
        self.loads += 1
        return state


# ---------------------------------------------------------------------------
# pausable single run
# ---------------------------------------------------------------------------

class PausableRun:
    """A full (non-sampled) simulation that can pause, snapshot, and
    resume bit-identically.

    Every plain run is one: ``Simulator.run_benchmark`` drives it
    straight to the end, :func:`run_spec` steps it ``chunk``
    committed instructions at a time (the whole run when ``chunk`` is
    None), and :func:`~repro.sim.parallel.execute_specs` runs one per
    timing group of a task.  Assembled by
    :func:`~repro.sim.simulator.assemble_run`; ``blocks`` lets a
    :class:`~repro.sim.simulator.Simulator` share its power model,
    ``observers`` are extra per-cycle observers.

    A task shares its per-input work through three more options:
    ``hierarchy`` is an already prewarmed memory system (the run does
    not prewarm again), ``trace`` the run's ops drawn once up front
    (instead of a fresh seeded generator's identical ones), and
    ``riders`` are :class:`~repro.sim.simulator.PolicyRider` s whose
    results :meth:`results` returns after the run's own.  A run with
    riders goes straight through; its snapshots do not carry them.
    """

    kind = "run"

    def __init__(self, benchmark: Union[str, BenchmarkProfile],
                 policy: Union[str, GatingPolicy] = "base",
                 instructions: Optional[int] = None, *,
                 config: Optional[MachineConfig] = None,
                 calibration: Optional[PowerCalibration] = None,
                 seed: Optional[int] = None,
                 prewarm: bool = True,
                 blocks: Optional[BlockPowers] = None,
                 observers: Iterable[CycleObserver] = (),
                 chunk: Optional[int] = None,
                 hierarchy: Optional[CacheHierarchy] = None,
                 trace: Optional[Iterable[MicroOp]] = None,
                 riders: Sequence[PolicyRider] = ()) -> None:
        profile = (get_profile(benchmark) if isinstance(benchmark, str)
                   else benchmark)
        self.benchmark = profile.name
        if isinstance(policy, str):
            self.policy_name, policy = policy, make_policy(policy)
        else:
            self.policy_name = policy.name
        self.instructions = instruction_budget(instructions)
        self.seed = seed
        self.calibration = calibration or PowerCalibration()
        self.chunk = chunk
        self.riders = riders
        config = config or baseline_config()
        generator = None
        if trace is None or (prewarm and hierarchy is None):
            generator = SyntheticTraceGenerator(profile, seed=seed)
        stream = TraceStream(iter(generator if trace is None else trace),
                             limit=self.instructions)
        self.pipeline, self.accountant = assemble_run(
            config, stream, policy,
            blocks or BlockPowers(config, self.calibration),
            hierarchy=hierarchy,
            prewarm=generator if prewarm and hierarchy is None else None,
            observers=observers, riders=riders)

    @property
    def committed(self) -> int:
        return self.pipeline.stats.committed

    @property
    def done(self) -> bool:
        return self.committed >= self.instructions

    @property
    def progress(self) -> Dict[str, int]:
        return {"committed": self.committed,
                "instructions": self.instructions}

    def advance(self, to_committed: Optional[int] = None) -> SimStats:
        """Simulate up to ``to_committed`` instructions (all when None).

        Chunked calls step the same cycles as one uninterrupted call —
        the run loop breaks purely on the committed count and
        ``finalize`` is idempotent.
        """
        target = self.instructions if to_committed is None else min(
            to_committed, self.instructions)
        return self.pipeline.run(max_instructions=target)

    def step(self) -> None:
        """Simulate one chunk (the rest of the run when unchunked)."""
        self.advance(self.committed + self.chunk if self.chunk else None)

    def state(self) -> Dict[str, Any]:
        """Picklable snapshot; feed to :meth:`resume` (via a
        :class:`CheckpointStore` round-trip or directly)."""
        return {
            "benchmark": self.benchmark,
            "policy_name": self.policy_name,
            "instructions": self.instructions,
            "seed": self.seed,
            "calibration": self.calibration,
            # replay position: ops drawn from the seeded generator (the
            # stream itself — including its lookahead op — pickles as
            # part of the pipeline graph)
            "drawn": self.pipeline.stream.source_drawn,
            "pipeline": self.pipeline,
            "accountant": self.accountant,
        }

    @classmethod
    def resume(cls, state: Dict[str, Any]) -> "PausableRun":
        """Rebuild a paused run from :meth:`state`; it steps in
        :data:`DEFAULT_CHUNK` chunks, as the run that saved it did.

        The pipeline and accountant come back from the pickle (one
        object graph, so the observer binding survives); the trace
        source is re-created from the seed and fast-replayed to the
        recorded draw position — replay only advances the generator's
        RNG, it does not touch the (snapshotted) caches or predictor.
        """
        run = cls.__new__(cls)
        run.benchmark = state["benchmark"]
        run.policy_name = state["policy_name"]
        run.instructions = state["instructions"]
        run.seed = state["seed"]
        run.calibration = state["calibration"]
        run.chunk = DEFAULT_CHUNK
        run.riders = ()
        run.pipeline = state["pipeline"]
        run.accountant = state["accountant"]
        run.pipeline.stream.rebind(
            replay_source(run.benchmark, run.seed, state["drawn"]))
        return run

    def result(self) -> SimulationResult:
        return build_result(self.benchmark, self.pipeline.policy,
                            self.accountant, self.pipeline.stats)

    def results(self) -> List[SimulationResult]:
        """:meth:`result`, then each rider's result in rider order;
        every rider's ``stats`` is a copy of the shared run's."""
        stats = self.pipeline.stats
        return [self.result()] + [
            build_result(self.benchmark, rider.policy, rider.accountant,
                         copy.deepcopy(stats))
            for rider in self.riders]


# ---------------------------------------------------------------------------
# the run driver (the parallel runner, service and CLI entry point)
# ---------------------------------------------------------------------------

def straight_through(spec: Any, store: CheckpointStore) -> bool:
    """True when ``spec`` runs as one uninterrupted pipeline: a plain
    run with no checkpoint store, or one shorter than two chunks.

    Every other run is sampled or checkpointed — the runs
    :func:`run_spec` snapshots when ``store`` is enabled, and the runs
    per-cycle observers (the histograms) cannot follow.
    """
    return not spec.sample and not (
        store.enabled and spec.instructions >= 2 * DEFAULT_CHUNK)


def run_spec(spec: Any, calibration: Optional[PowerCalibration] = None,
             *, store: Optional[CheckpointStore] = None,
             stop: Optional[Any] = None,
             observers: Iterable[CycleObserver] = ()) -> SimulationResult:
    """Run one spec to its result; every spec comes through here.

    A plain spec builds a :class:`PausableRun`, a sampled one a
    :class:`~repro.sim.sampling.SampledRun`; both step (a chunk or a
    window) until done.  Unless the run goes :func:`straight_through`,
    an enabled ``store`` (default: ``$REPRO_CHECKPOINT_DIR``) resumes a
    snapshot saved under the spec's fingerprint, snapshots after every
    step, and discards the snapshot on completion.  ``stop`` is an
    optional ``threading.Event``-like object polled before each step;
    when set, the state is saved and :class:`SimulationInterrupted`
    raised so the caller can re-queue instead of losing the work.
    ``observers`` attach to a fresh plain run's pipeline.
    """
    store = store if store is not None else CheckpointStore()
    straight = straight_through(spec, store)
    if straight:
        store = CheckpointStore("")          # nothing to resume or save
    key = spec_fingerprint(spec, calibration) if store.enabled else ""
    cls: Any = PausableRun
    args: Tuple[Any, ...] = ()
    options: Dict[str, Any] = {
        "observers": observers, "chunk": None if straight else DEFAULT_CHUNK}
    if spec.sample:
        from .sampling import SampledRun
        cls, args, options = SampledRun, (spec.sample,), {}
    journal = get_journal()
    ident = {"key": key, "benchmark": spec.benchmark, "policy": spec.policy}
    run = None
    state = store.load(key, kind=cls.kind)
    if state is not None:
        try:
            run = cls.resume(state)
        except Exception:                    # noqa: BLE001 - stale state
            store.discard(key)
        else:
            journal.emit("checkpoint.resume", strategy=run.kind, **ident,
                         **run.progress)
    if run is None:
        run = cls(spec.benchmark, spec.policy, spec.instructions, *args,
                  config=config_from_tag(spec.tag), calibration=calibration,
                  seed=spec.seed, **options)
    while not run.done:
        if stop is not None and stop.is_set():
            store.save(key, run.kind, run.state(), meta=run.progress)
            raise SimulationInterrupted(
                f"{run.kind} stopped at {run.progress}")
        run.step()
        if not run.done and store.save(key, run.kind, run.state(),
                                       meta=run.progress):
            journal.emit("checkpoint.save", strategy=run.kind, **ident,
                         **run.progress)
    store.discard(key)
    return run.result()
