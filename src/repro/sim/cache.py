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
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import os
import time
from collections import Counter, OrderedDict
from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from ..faults import corrupt_file, fault_active, should_inject
from ..pipeline.config import MachineConfig
from ..pipeline.stats import SimStats
from ..power.budget import PowerCalibration
from ..trace.uop import FUClass, OpClass
from ..workloads.profiles import BenchmarkProfile, get_profile
from .configs import config_from_tag
from .simulator import SimulationResult

__all__ = ["ResultCache", "fingerprint", "result_to_dict",
           "result_from_dict", "spec_fingerprint", "CACHE_ENV_VAR"]

#: environment variable naming the on-disk cache directory
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: bump to invalidate every existing entry after a model change that
#: alters simulation results without altering any config dataclass
CACHE_VERSION = 1

#: seconds after which an orphaned ``*.json.tmp.<pid>`` file (a writer
#: killed between open and ``os.replace``) is considered abandoned; a
#: live concurrent writer finishes in well under this
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
# the cache proper
# ---------------------------------------------------------------------------

class ResultCache:
    """One-JSON-file-per-run store under a root directory.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$REPRO_CACHE_DIR``; when neither
        is set (or ``root`` is the empty string) the cache is disabled
        and every lookup misses.

    Notes
    -----
    A corrupt, truncated, or schema-incompatible entry is treated as a
    miss: the file is deleted and the run recomputed.  ``hits``,
    ``misses``, and ``stores`` count lookups for progress reporting;
    lookups against a *disabled* cache count as ``disabled_lookups``,
    not misses, so the hit ratio shown by the CLI and ``/metrics``
    reflects real cache behaviour instead of reading near-zero whenever
    ``REPRO_CACHE_DIR`` is unset.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_ENV_VAR)
        self.root = root or None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled_lookups = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[SimulationResult]:
        """Stored result for ``key``, or ``None`` on any kind of miss."""
        if not self.enabled:
            self.disabled_lookups += 1
            return None
        path = self._path(key)
        # fault injection: scribble over an existing entry just before
        # the read, driving the corruption-tolerance path below.  The
        # ``fault_active`` pre-check keeps cold lookups (no file yet)
        # out of the site's arrival count.
        if (fault_active("cache.corrupt") and os.path.exists(path)
                and should_inject("cache.corrupt")):
            corrupt_file(path)
        try:
            with open(path) as handle:
                data = json.load(handle)
            result = result_from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # corrupt or stale entry: drop it and recompute
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (no-op when disabled)."""
        if not self.enabled:
            return
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self._sweep_stale_tmp(os.path.dirname(path), keep=tmp)
            with open(tmp, "w") as handle:
                json.dump(result_to_dict(result), handle)
            os.replace(tmp, path)  # atomic, safe under parallel writers
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1

    @staticmethod
    def _sweep_stale_tmp(dirpath: str, keep: Optional[str] = None) -> int:
        """Delete abandoned ``*.json.tmp.*`` files older than
        :data:`STALE_TMP_SECONDS` in ``dirpath``; returns the count.

        A writer killed between opening its temp file and the atomic
        ``os.replace`` leaves the orphan behind forever; sweeping here
        (on the next ``put`` into the same bucket) keeps the cache tree
        from accumulating them.  Recent temp files belong to live
        concurrent writers and are left alone, as is ``keep`` (the
        caller's own temp path).
        """
        removed = 0
        cutoff = time.time() - STALE_TMP_SECONDS
        try:
            names = os.listdir(dirpath)
        except OSError:
            return 0
        for name in names:
            if ".json.tmp." not in name:
                continue
            candidate = os.path.join(dirpath, name)
            if candidate == keep:
                continue
            try:
                if os.path.getmtime(candidate) < cutoff:
                    os.unlink(candidate)
                    removed += 1
            except OSError:
                pass                 # vanished or unreadable: not ours
        return removed

    def clear(self) -> int:
        """Delete every entry *and* orphaned temp file; count removed.

        Also resets the ``hits``/``misses``/``stores`` counters: the
        lookups they describe were against entries that no longer
        exist, so a post-clear hit ratio would be fiction.
        """
        if not self.enabled:
            return 0
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json") or ".json.tmp." in name:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled_lookups = 0
        return removed
