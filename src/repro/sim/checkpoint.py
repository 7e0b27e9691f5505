"""Versioned, fingerprinted simulator checkpoints.

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

import hashlib
import os
import pickle
from typing import Any, Dict, Iterator, Optional

from ..obs.events import get_journal
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats
from ..power.budget import BlockPowers, PowerCalibration
from ..trace.stream import TraceStream
from ..trace.uop import MicroOp
from ..workloads.profiles import get_profile
from ..workloads.synthetic import SyntheticTraceGenerator
from .cache import fingerprint
from .configs import baseline_config, config_from_tag, default_instructions
from .simulator import SimulationResult, assemble_run, build_result, \
    make_policy

__all__ = ["CHECKPOINT_DIR_ENV_VAR", "CHECKPOINT_VERSION", "CheckpointStore",
           "PausableRun", "SimulationInterrupted", "checkpoint_chunk",
           "replay_source", "run_resumable_spec", "spec_checkpoint_key"]

#: environment variable naming the checkpoint directory; unset disables
#: checkpointing entirely (every store degrades to a no-op)
CHECKPOINT_DIR_ENV_VAR = "REPRO_CHECKPOINT_DIR"

#: committed instructions between checkpoints of a plain (non-sampled)
#: resumable run; override with ``REPRO_CHECKPOINT_CHUNK``
CHUNK_ENV_VAR = "REPRO_CHECKPOINT_CHUNK"
DEFAULT_CHUNK = 250_000

#: bump when the snapshot state schema changes; older files then read
#: back as misses instead of unpickling into a surprise (v2: one cycle
#: core, no ``backend`` key)
CHECKPOINT_VERSION = 2

_MAGIC = b"REPROCKPT1\n"


class SimulationInterrupted(RuntimeError):
    """A resumable run was stopped between chunks/windows.

    State was already checkpointed; the service layer translates this
    into a job re-queue so the next attempt resumes where this one
    stopped.
    """


def checkpoint_chunk() -> int:
    """Chunk length for plain resumable runs (env-overridable)."""
    value = os.environ.get(CHUNK_ENV_VAR)
    if value is None:
        return DEFAULT_CHUNK
    chunk = int(value)
    if chunk <= 0:
        raise ValueError(f"{CHUNK_ENV_VAR} must be positive")
    return chunk


def spec_checkpoint_key(spec: Any,
                        calibration: Optional[PowerCalibration] = None
                        ) -> str:
    """Checkpoint key for a run spec — the same content hash the disk
    cache and the service dedup use, so one fingerprint names a run
    everywhere (cache entry, queue dedup, checkpoint file)."""
    return fingerprint(config_from_tag(spec.tag),
                       get_profile(spec.benchmark), spec.policy,
                       spec.instructions, calibration, spec.seed,
                       sample=getattr(spec, "sample", None))


def replay_source(benchmark: str, seed: Optional[int],
                  drawn: int) -> Iterator[MicroOp]:
    """A fresh seeded trace source advanced past its first ``drawn`` ops
    (a snapshot's draw position); replay touches only the trace RNG."""
    source = iter(SyntheticTraceGenerator(get_profile(benchmark), seed=seed))
    for _ in range(drawn):
        next(source)
    return source


# ---------------------------------------------------------------------------
# the on-disk store
# ---------------------------------------------------------------------------

class CheckpointStore:
    """Atomic, integrity-checked checkpoint files under one root.

    ``root`` defaults to ``$REPRO_CHECKPOINT_DIR``; without either the
    store is disabled and every operation is a cheap no-op.  Like the
    result cache, anything wrong with a file on read — truncation,
    corruption, a version or fingerprint mismatch — deletes it and
    reports a miss; saving never raises (failures bump ``dropped``).
    """

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(CHECKPOINT_DIR_ENV_VAR)
        self.root = root or None
        self.saves = 0
        self.loads = 0
        self.misses = 0
        self.dropped = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key[:2], f"{key}.ckpt")

    def save(self, key: str, kind: str, state: Dict[str, Any],
             meta: Optional[Dict[str, Any]] = None) -> bool:
        """Persist ``state`` under ``key``; False on any failure."""
        if not self.enabled:
            return False
        path = self.path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
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
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(_MAGIC)
                pickle.dump(envelope, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError):
            self.dropped += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.saves += 1
        return True

    def _read_envelope(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path(key)
        try:
            with open(path, "rb") as handle:
                if handle.read(len(_MAGIC)) != _MAGIC:
                    raise ValueError("bad magic")
                envelope = pickle.load(handle)
            if (not isinstance(envelope, dict)
                    or envelope.get("version") != CHECKPOINT_VERSION
                    or envelope.get("key") != key):
                raise ValueError("stale or mismatched envelope")
            payload = envelope["payload"]
            if hashlib.sha256(payload).hexdigest() != envelope["digest"]:
                raise ValueError("digest mismatch")
            return envelope
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError, EOFError,
                pickle.UnpicklingError, AttributeError, IndexError,
                ImportError):
            # corrupt, truncated, or schema-incompatible: drop it
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

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
        if envelope is None:
            self.misses += 1
            return None
        if kind is not None and envelope["kind"] != kind:
            self.misses += 1
            return None
        try:
            state = pickle.loads(envelope["payload"])
        except Exception:                    # noqa: BLE001 - any unpickle
            try:
                os.unlink(self.path(key))
            except OSError:
                pass
            self.misses += 1
            return None
        self.loads += 1
        return state

    def discard(self, key: str) -> None:
        """Delete ``key``'s checkpoint (run completed; state is moot)."""
        if not self.enabled:
            return
        try:
            os.unlink(self.path(key))
        except OSError:
            pass


# ---------------------------------------------------------------------------
# pausable single run
# ---------------------------------------------------------------------------

class PausableRun:
    """A full (non-sampled) simulation that can pause, snapshot, and
    resume bit-identically.

    Assembled by :func:`~repro.sim.simulator.assemble_run` from the same
    generator/stream wiring and prewarm as ``Simulator.run_benchmark``,
    so a :class:`PausableRun` driven straight to the end produces the
    same :class:`SimulationResult`.
    """

    def __init__(self, benchmark: str, policy: str = "base",
                 instructions: Optional[int] = None, *,
                 config: Optional[MachineConfig] = None,
                 calibration: Optional[PowerCalibration] = None,
                 seed: Optional[int] = None,
                 prewarm: bool = True) -> None:
        profile = get_profile(benchmark)
        self.benchmark = profile.name
        self.policy_name = policy
        self.instructions = instructions or default_instructions()
        self.seed = seed
        self.calibration = calibration or PowerCalibration()
        config = config or baseline_config()
        generator = SyntheticTraceGenerator(profile, seed=seed)
        stream = TraceStream(iter(generator), limit=self.instructions)
        self.pipeline, self.accountant = assemble_run(
            config, stream, make_policy(policy),
            BlockPowers(config, self.calibration),
            prewarm=generator if prewarm else None)

    @property
    def committed(self) -> int:
        return self.pipeline.stats.committed

    @property
    def done(self) -> bool:
        return self.committed >= self.instructions

    def advance(self, to_committed: Optional[int] = None) -> SimStats:
        """Simulate up to ``to_committed`` instructions (all when None).

        Chunked calls step the same cycles as one uninterrupted call —
        the run loop breaks purely on the committed count and
        ``finalize`` is idempotent.
        """
        target = self.instructions if to_committed is None else min(
            to_committed, self.instructions)
        return self.pipeline.run(max_instructions=target)

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
        """Rebuild a paused run from :meth:`state`.

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
        run.pipeline = state["pipeline"]
        run.accountant = state["accountant"]
        run.pipeline.stream.rebind(
            replay_source(run.benchmark, run.seed, state["drawn"]))
        return run

    def result(self) -> SimulationResult:
        return build_result(self.benchmark, self.pipeline.policy,
                            self.accountant, self.pipeline.stats)


# ---------------------------------------------------------------------------
# resumable spec execution (the service/CLI entry point)
# ---------------------------------------------------------------------------

def run_resumable_spec(spec: Any,
                       calibration: Optional[PowerCalibration] = None,
                       store: Optional[CheckpointStore] = None,
                       stop: Optional[Any] = None,
                       chunk: Optional[int] = None) -> SimulationResult:
    """Run a plain spec in checkpointed chunks.

    Loads an existing checkpoint for the spec's fingerprint (resuming
    mid-run), simulates ``chunk`` committed instructions at a time,
    snapshots between chunks, and discards the checkpoint on
    completion.  ``stop`` is an optional ``threading.Event``-like
    object polled between chunks; when set, the current state is saved
    and :class:`SimulationInterrupted` raised so the caller can
    re-queue instead of losing the work.
    """
    store = store if store is not None else CheckpointStore()
    chunk = chunk or checkpoint_chunk()
    key = spec_checkpoint_key(spec, calibration)
    journal = get_journal()
    run: Optional[PausableRun] = None
    state = store.load(key, kind="run")
    if state is not None:
        try:
            run = PausableRun.resume(state)
        except Exception:                    # noqa: BLE001 - stale state
            store.discard(key)
            run = None
        else:
            journal.emit("checkpoint.resume", strategy="run", key=key,
                         benchmark=spec.benchmark, policy=spec.policy,
                         committed=run.committed,
                         instructions=run.instructions)
    if run is None:
        run = PausableRun(spec.benchmark, spec.policy, spec.instructions,
                          config=config_from_tag(spec.tag),
                          calibration=calibration, seed=spec.seed)
    while not run.done:
        if stop is not None and stop.is_set():
            store.save(key, "run", run.state(),
                       meta={"committed": run.committed,
                             "instructions": run.instructions})
            raise SimulationInterrupted(
                f"stopped at {run.committed}/{run.instructions} "
                "committed instructions; state checkpointed")
        before = run.committed
        run.advance(min(run.committed + chunk, run.instructions))
        if run.committed == before:
            break                    # trace exhausted early: just finish
        if not run.done:
            if store.save(key, "run", run.state(),
                          meta={"committed": run.committed,
                                "instructions": run.instructions}):
                journal.emit("checkpoint.save", strategy="run", key=key,
                             benchmark=spec.benchmark, policy=spec.policy,
                             committed=run.committed,
                             instructions=run.instructions)
    store.discard(key)
    return run.result()
