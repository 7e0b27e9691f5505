"""Persistent, content-addressed result cache.

The experiment grid behind §5's figures is a pure function of
(machine config, benchmark profile, policy, instruction budget, seed):
the trace generator is seeded and the pipeline is deterministic, so a
:class:`~repro.sim.simulator.SimulationResult` can be stored on disk and
replayed in any later process.  :class:`ResultCache` does exactly that —
one JSON file per run, named by a SHA-256 fingerprint of everything the
run depends on, so a stale config or profile change can never alias a
fresh one.

The cache directory comes from the ``REPRO_CACHE_DIR`` environment
variable (or an explicit ``root`` argument); without either the cache
degrades to a no-op and the in-memory memoisation in
:class:`~repro.sim.runner.ExperimentRunner` is all you get.  Corrupt or
stale entries are deleted and recomputed, never raised.

How a keyed file lands on disk is :class:`FileStore`'s business, which
the checkpoint store shares; its :func:`write_atomic` also rewrites the
service's queue journal.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import os
import pickle
import threading
import time
from collections import Counter, OrderedDict
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple

from ..faults import corrupt_file, fault_active, should_inject
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats
from ..power.budget import PowerCalibration
from ..trace.uop import FUClass, OpClass
from ..workloads.profiles import BenchmarkProfile, get_profile
from .configs import config_from_tag
from .simulator import SimulationResult

__all__ = ["FileStore", "ResultCache", "fingerprint", "result_to_dict",
           "result_from_dict", "spec_fingerprint", "write_atomic",
           "CACHE_ENV_VAR"]

#: environment variable naming the on-disk cache directory
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: bump to invalidate every existing entry after a model change that
#: alters simulation results without altering any config dataclass
CACHE_VERSION = 1

#: seconds after which an orphaned temp file (a writer killed between
#: open and rename) is considered abandoned; a live concurrent writer
#: finishes in well under this
STALE_TMP_SECONDS = 300.0


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

def _jsonable(value: Any) -> Any:
    """Canonical JSON-encodable form of configs/profiles/enums."""
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {(k.name if isinstance(k, enum.Enum) else str(k)):
                _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


#: distinct config/profile/calibration objects whose canonical JSON
#: text is kept; the report grid needs 5 + 18 + 1, a service a few more
ENCODINGS_KEPT = 128

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` without
#: building a fresh encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: id(obj) -> (obj, deep copy taken when encoded, canonical JSON text),
#: oldest first; holding ``obj`` keeps its id from being recycled while
#: it is listed.  No lock (a lock held across a fork would hang the
#: child): each entry is stored whole in one atomic dict operation, so
#: racing threads can at worst encode an object twice or evict an
#: entry early, never pair a text with the wrong contents.
_ENCODINGS: OrderedDict[int, Tuple[Any, Any, str]] = OrderedDict()

_DEFAULT_CALIBRATION = PowerCalibration()


def _encoded(value: Any) -> str:
    """Canonical JSON text of ``_jsonable(value)``, encoded once per
    object.

    An entry answers only for the very object it was made from, and
    only while that object still equals the deep copy the text was
    encoded from, so an object changed in place (a frozen config's
    dict mutated, say) is re-encoded rather than handed its old text.
    """
    entry = _ENCODINGS.get(id(value))
    if entry is not None and entry[0] is value and value == entry[1]:
        return entry[2]
    snapshot = copy.deepcopy(value)
    text = _CANONICAL.encode(_jsonable(snapshot))
    _ENCODINGS[id(value)] = (value, snapshot, text)
    while len(_ENCODINGS) > ENCODINGS_KEPT:
        try:
            _ENCODINGS.popitem(last=False)
        except KeyError:         # another thread emptied it first
            break
    return text


def fingerprint(config: MachineConfig, profile: BenchmarkProfile,
                policy: str, instructions: int,
                calibration: Optional[PowerCalibration] = None,
                seed: Optional[int] = None,
                sample: Optional[str] = None) -> str:
    """Content hash of everything a simulation's outcome depends on.

    The hashed blob is ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` of the payload ``{"calibration", "config",
    "instructions", "policy", "profile", "seed", "version"}``, spelt
    out key by key in sorted order so each object's text comes from
    :func:`_encoded` instead of a fresh walk.  ``sample`` is the "KxL"
    sampling plan of a sampled run; it joins the payload only when set,
    so every pre-existing full-run fingerprint (and the cache entries
    filed under them) stays stable.
    """
    parts = [
        '{"calibration":', _encoded(calibration or _DEFAULT_CALIBRATION),
        ',"config":', _encoded(config),
        ',"instructions":', _CANONICAL.encode(instructions),
        ',"policy":', _CANONICAL.encode(policy),
        ',"profile":', _encoded(profile),
    ]
    if sample is not None:
        parts += [',"sample":', _CANONICAL.encode(sample)]
    parts += [',"seed":', _CANONICAL.encode(seed),
              ',"version":', _CANONICAL.encode(CACHE_VERSION), "}"]
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


#: tag -> machine config for :func:`spec_fingerprint`; the objects are
#: never handed out, so nothing can change them under their encodings
_tag_config = lru_cache(maxsize=ENCODINGS_KEPT)(config_from_tag)


def spec_fingerprint(spec: Any,
                     calibration: Optional[PowerCalibration] = None) -> str:
    """:func:`fingerprint` of a :class:`~repro.sim.parallel.RunSpec` —
    the one key that names a run everywhere: cache entry, batch and
    service dedup, checkpoint file.  An empty sample plan runs as a
    full run, so it keys as one."""
    return fingerprint(_tag_config(spec.tag), get_profile(spec.benchmark),
                       spec.policy, spec.instructions, calibration, spec.seed,
                       sample=spec.sample or None)


# ---------------------------------------------------------------------------
# SimulationResult <-> JSON
# ---------------------------------------------------------------------------

_STATS_SCALARS = (
    "cycles", "committed", "fetched", "loads", "stores",
    "forwarded_loads", "mispredicts", "wrong_path_fetched",
    "wrong_path_squashed", "mispredict_rate", "dcache_port_utilization",
    "result_bus_utilization", "issue_ipc", "fetch_stall_fraction",
)


def _stats_to_dict(stats: SimStats) -> Dict[str, Any]:
    data: Dict[str, Any] = {name: getattr(stats, name)
                            for name in _STATS_SCALARS}
    data["commit_class_counts"] = {
        op.name: count for op, count in stats.commit_class_counts.items()}
    data["fu_utilization"] = {
        fu.name: util for fu, util in stats.fu_utilization.items()}
    data["cache_stats"] = stats.cache_stats
    return data


def _stats_from_dict(data: Dict[str, Any]) -> SimStats:
    stats = SimStats()
    for name in _STATS_SCALARS:
        setattr(stats, name, data[name])
    stats.commit_class_counts = Counter(
        {OpClass[name]: count
         for name, count in data["commit_class_counts"].items()})
    stats.fu_utilization = {
        FUClass[name]: util
        for name, util in data["fu_utilization"].items()}
    stats.cache_stats = data["cache_stats"]
    return stats


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """JSON-encodable form of a :class:`SimulationResult`.

    The sampling keys appear only on sampled-run aggregates, so a full
    run serialises exactly as it did before sampling existed — the
    golden invariance captures (and any cache entry written by an
    older tree) stay byte-identical.
    """
    data = {
        "benchmark": result.benchmark,
        "policy": result.policy,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "base_power": result.base_power,
        "average_power": result.average_power,
        "total_saving": result.total_saving,
        "family_savings": dict(result.family_savings),
        "mode_cycles": {str(k): v for k, v in result.mode_cycles.items()},
        "fu_toggles": result.fu_toggles,
        "stats": (_stats_to_dict(result.stats)
                  if result.stats is not None else None),
    }
    if result.sample is not None:
        data["sample"] = result.sample
        data["sampled_instructions"] = result.sampled_instructions
        data["confidence"] = {metric: list(bounds)
                              for metric, bounds in
                              result.confidence.items()}
    return data


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    return SimulationResult(
        benchmark=data["benchmark"],
        policy=data["policy"],
        instructions=data["instructions"],
        cycles=data["cycles"],
        ipc=data["ipc"],
        base_power=data["base_power"],
        average_power=data["average_power"],
        total_saving=data["total_saving"],
        family_savings=dict(data["family_savings"]),
        stats=(_stats_from_dict(data["stats"])
               if data.get("stats") is not None else None),
        mode_cycles={int(k): v for k, v in data["mode_cycles"].items()},
        fu_toggles=data["fu_toggles"],
        # .get(): entries written before sampling existed lack these
        sample=data.get("sample"),
        sampled_instructions=int(data.get("sampled_instructions") or 0),
        confidence={metric: tuple(bounds)
                    for metric, bounds in (data.get("confidence")
                                           or {}).items()},
    )


# ---------------------------------------------------------------------------
# atomic keyed files
# ---------------------------------------------------------------------------

#: marks a file as a write in progress: ``<target>.tmp.<pid>.<thread>``
TMP_MARKER = ".tmp."

#: what reading or decoding a torn, corrupt or stale file raises
_UNREADABLE = (OSError, ValueError, KeyError, TypeError, AttributeError,
               IndexError, EOFError, ImportError, pickle.UnpicklingError)


def _sweep_stale_tmp(directory: str) -> None:
    """Delete temp files in ``directory`` older than
    :data:`STALE_TMP_SECONDS`: a writer killed before its rename leaves
    one behind for good, while a live writer's is recent."""
    cutoff = time.time() - STALE_TMP_SECONDS
    try:
        names = [name for name in os.listdir(directory)
                 if TMP_MARKER in name]
    except OSError:
        return
    for name in names:
        candidate = os.path.join(directory, name)
        try:
            if os.path.getmtime(candidate) < cutoff:
                os.unlink(candidate)
        except OSError:
            pass                     # vanished or unreadable: not ours


def write_atomic(path: str, *chunks: bytes) -> None:
    """Replace ``path`` with ``chunks`` in one step; raises ``OSError``.

    The bytes go to a temp file named for this process and thread, so
    no two live writers share one, and a rename swaps it in: a reader
    sees the old file or the new one, never a mix.  Stale temp files in
    the directory are swept first.
    """
    _sweep_stale_tmp(os.path.dirname(path) or ".")
    tmp = f"{path}{TMP_MARKER}{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class FileStore:
    """Files named by key, ``<root>/<key[:2]>/<key><ext>``, written
    atomically: the mechanics under :class:`ResultCache` and
    :class:`~repro.sim.checkpoint.CheckpointStore`, which set ``ext``
    and ``env_var``.

    ``root`` defaults to ``$<env_var>``; without either (or with the
    empty string) the store is disabled.  A file that cannot be read or
    decoded is deleted and reads as absent.  With ``corrupt_site`` set,
    that fault-injection site scribbles over a file just before a read.
    """

    ext = ""
    env_var = ""
    corrupt_site: Optional[str] = None

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(self.env_var)
        self.root = root or None

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key[:2], key + self.ext)

    def write(self, key: str, *chunks: bytes) -> None:
        """File ``chunks`` under ``key``; raises ``OSError``."""
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, *chunks)

    def read(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        """``decode`` of ``key``'s bytes, or None when there is no file
        or it does not decode (the file is then deleted)."""
        path = self.path(key)
        # the ``fault_active`` pre-check keeps cold lookups (no file
        # yet) out of the site's arrival count
        site = self.corrupt_site
        if (site is not None and fault_active(site)
                and os.path.exists(path) and should_inject(site)):
            corrupt_file(path)
        try:
            with open(path, "rb") as handle:
                return decode(handle.read())
        except FileNotFoundError:
            return None
        except _UNREADABLE:
            self.discard(key)
            return None

    def discard(self, key: str) -> None:
        """Delete ``key``'s file, if there is one."""
        if not self.enabled:
            return
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every file and temp file under the root; the count."""
        if not self.enabled:
            return 0
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(self.ext) or TMP_MARKER in name:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
        return removed


# ---------------------------------------------------------------------------
# the cache proper
# ---------------------------------------------------------------------------

class ResultCache(FileStore):
    """One JSON file per run under ``root`` (default
    ``$REPRO_CACHE_DIR``; disabled without either, so every lookup
    misses).

    A corrupt, truncated, or schema-incompatible entry is a miss: the
    file is deleted and the run recomputed.  ``hits``, ``misses`` and
    ``stores`` count this instance's lookups and writes; lookups
    against a disabled cache count as ``disabled_lookups``.  Nothing in
    the program reads them (the CLI's summary counts
    :class:`~repro.sim.parallel.RunReport` sources, ``/metrics`` the
    worker pool's own hits); they tell a caller or a test what one
    cache did.
    """

    ext = ".json"
    env_var = CACHE_ENV_VAR
    corrupt_site = "cache.corrupt"

    def __init__(self, root: Optional[str] = None) -> None:
        super().__init__(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled_lookups = 0

    def get(self, key: str) -> Optional[SimulationResult]:
        """Stored result for ``key``, or ``None`` on any kind of miss."""
        if not self.enabled:
            self.disabled_lookups += 1
            return None
        result = self.read(key, lambda data: result_from_dict(
            json.loads(data)))
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (no-op when disabled)."""
        if not self.enabled:
            return
        data = json.dumps(result_to_dict(result)).encode("ascii")
        try:
            self.write(key, data)
        except OSError:
            return
        self.stores += 1

    def clear(self) -> int:
        """Delete every entry and orphaned temp file; count removed.
        Resets the counters too: their lookups were against entries
        that no longer exist."""
        removed = super().clear()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled_lookups = 0
        return removed
