"""Host-time tracer for the end-to-end benchmark.

The tracer replaces public methods of the simulator's classes with
timing wrappers, at class level and before any simulator object
exists, so bound methods that the cycle cores cache at construction
(``policy.observe``, ``hierarchy.load``, observer callbacks) are
already the wrapped ones.  Nothing inside ``src/`` is edited: every
record is taken in the benchmark's own files, around the calls into
each layer.

Two kinds of record are kept:

* per-call aggregates ``(calls, total, self)`` keyed by
  ``(layer, method)``.  Per-cycle methods run 10^5 to 10^6 times per
  workload, so they are never stored one by one.  *Self* time is a
  call's duration minus the time spent in enclosed traced calls.
* coarse spans (one per simulation, grid pass or HTTP request), each
  with a trace id and its parent span, kept in memory and written once
  when the benchmark ends.

Work in forked pool workers and inside the ``repro serve`` process is
not traced: a forked child gets the original methods back.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "install_repo_targets", "LAYERS"]

#: layers in the order reports list them; wall time that no traced
#: call covers is the benchmark harness's own
LAYERS = ("workloads", "pipeline", "core", "power", "memory", "frontend",
          "sim", "sim.sampling", "sim.runner", "sim.parallel", "sim.cache",
          "analysis", "service")

#: spans kept per run in the written trace (aggregates are complete)
MAX_SPANS = 100

Key = Tuple[str, str]


class Tracer:
    """Class-level call timer with per-thread self-time stacks."""

    def __init__(self) -> None:
        self.enabled = False
        self.stats: Dict[Key, List[float]] = {}
        self.durations: Dict[Key, List[float]] = {}
        self.outcomes: Dict[Key, List[int]] = {}
        self.spans: List[Dict[str, Any]] = []
        self.span_count = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._originals: List[Tuple[Any, str, Any]] = []
        self._epoch = time.perf_counter()
        # a forked pool worker inherits the wrappers; its numbers would
        # die with it, so it gets the original methods back
        os.register_at_fork(after_in_child=self._restore_in_child)

    def _restore_in_child(self) -> None:
        self.enabled = False
        for owner, name, original in self._originals:
            setattr(owner, name, original)

    def _stack(self) -> List[float]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.spans = []
            local.trace = None
            return local.stack

    # -- wrapping ---------------------------------------------------------

    def _counting(self, record: List[float], call: Callable[..., Any]
                  ) -> Callable[..., Any]:
        """Hot-path wrapper body: aggregate counts only, no lock.

        Used for per-cycle methods, which the simulation workloads call
        from one thread.
        """
        tracer = self
        stack_of = self._stack
        perf = time.perf_counter

        def timed(*args, **kwargs):
            if not tracer.enabled:
                return call(*args, **kwargs)
            stack = stack_of()
            stack.append(0.0)
            start = perf()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
        return timed

    def wrap(self, cls: Any, method: str, layer: str, *,
             span: bool = False, timed: bool = False,
             outcome: Optional[Callable[[Any], bool]] = None) -> None:
        """Replace ``cls.method`` (a class's method or a module's
        function) with a timing wrapper.

        ``timed`` keeps every call's duration; ``span`` also records
        each call as a coarse span; ``outcome`` maps the return value
        to a success flag that is counted (a cache lookup's hit).
        """
        original = cls.__dict__[method]
        key = (layer, f"{cls.__name__}.{method}")
        record = self.stats.setdefault(key, [0, 0.0, 0.0])
        if span or timed or outcome is not None:
            self.durations.setdefault(key, [])
            if outcome is not None:
                self.outcomes.setdefault(key, [0, 0])
            tracer = self

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                with tracer._measure(key, span=span, outcome=outcome) as box:
                    box.append(original(*args, **kwargs))
                return box[0]
        else:
            wrapper = self._counting(record, original)
        wrapper.__name__ = getattr(original, "__name__", method)
        wrapper.__qualname__ = getattr(original, "__qualname__", method)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper.__wrapped__ = original
        setattr(cls, method, wrapper)
        self._originals.append((cls, method, original))

    def wrap_iterator(self, cls: type, layer: str) -> None:
        """Time every ``next()`` on the iterators ``cls.__iter__`` returns.

        Wrapping ``__iter__`` itself would time only the creation of a
        generator; the work happens one element at a time.
        """
        original = cls.__dict__["__iter__"]
        record = self.stats.setdefault(
            (layer, f"{cls.__name__}.__next__"), [0, 0.0, 0.0])
        counting = self._counting

        class TimedIterator:
            __slots__ = ("_next",)

            def __init__(self, it: Iterator[Any]) -> None:
                self._next = counting(record, it.__next__)

            def __iter__(self) -> "TimedIterator":
                return self

            def __next__(self) -> Any:
                return self._next()

        def wrapper(self_obj):
            return TimedIterator(original(self_obj))

        wrapper.__wrapped__ = original
        setattr(cls, "__iter__", wrapper)
        self._originals.append((cls, "__iter__", original))

    # -- spans ------------------------------------------------------------

    def new_trace(self) -> str:
        """Start a new trace id for spans opened on this thread."""
        self._stack()
        self._local.trace = uuid.uuid4().hex[:16]
        return self._local.trace

    def span(self, name: str, layer: str, **attrs: Any):
        """Context manager timing a harness-level unit of work (a grid
        pass, an HTTP request) as a coarse span of ``layer``."""
        return self._measure((layer, name), span=True, attrs=attrs)

    @contextmanager
    def _measure(self, key: Key, *, span: bool,
                 outcome: Optional[Callable[[Any], bool]] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        if not self.enabled:
            yield []
            return
        stack = self._stack()
        local = self._local
        span_id = next(self._ids) if span else None
        parent = local.spans[-1] if local.spans else None
        trace = local.trace or self.new_trace()
        if span:
            local.spans.append(span_id)
        box: List[Any] = []
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            elapsed = end - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            if span:
                local.spans.pop()
            with self._lock:
                record = self.stats.setdefault(key, [0, 0.0, 0.0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
                self.durations.setdefault(key, []).append(elapsed)
                if outcome is not None and box:
                    counts = self.outcomes[key]
                    counts[0] += 1
                    counts[1] += 1 if outcome(box[0]) else 0
                if span:
                    self.span_count += 1
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append({
                            "id": span_id, "parent": parent,
                            "trace": trace, "name": key[1],
                            "layer": key[0],
                            "start_s": start - self._epoch,
                            "end_s": end - self._epoch,
                            "self_s": elapsed - child, **(attrs or {})})

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every record (after warm-up, before measuring)."""
        with self._lock:
            for record in self.stats.values():
                record[0], record[1], record[2] = 0, 0.0, 0.0
            for values in self.durations.values():
                values.clear()
            for counts in self.outcomes.values():
                counts[0] = counts[1] = 0
            self.spans.clear()
            self.span_count = 0

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "total_s", "self_s"}}`` over all methods."""
        out: Dict[str, Dict[str, float]] = {}
        for (layer, _method), (calls, total, self_s) in self.stats.items():
            entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += self_s
        return out

    def method_durations(self, layer: str, method: str) -> List[float]:
        return list(self.durations.get((layer, method), ()))

    def method_outcomes(self, layer: str, method: str) -> Tuple[int, int]:
        """``(calls, successes)`` counted for a wrapped method."""
        calls, ok = self.outcomes.get((layer, method), (0, 0))
        return calls, ok

    def dump(self) -> Dict[str, Any]:
        """JSON-ready aggregates and spans."""
        return {
            "methods": [
                {"layer": layer, "method": method, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (layer, method), (calls, total, self_s)
                in sorted(self.stats.items()) if calls],
            "span_count": self.span_count,
            "spans": list(self.spans),
        }


def install_repo_targets(tracer: Tracer) -> None:
    """Wrap the simulator's public layer entry points.

    Must run before any simulator object is built, so cores that cache
    bound methods at construction pick up the wrappers.
    """
    from repro.core.dcg import DCGPolicy
    from repro.core.interface import GatingPolicy
    from repro.core.plb import PLBPolicy
    from repro.frontend.branch_predictor import BranchPredictor
    from repro.memory.hierarchy import CacheHierarchy
    from repro.pipeline.arraycore import ArrayPipeline
    from repro.pipeline.core import Pipeline
    from repro.power.accounting import PowerAccountant
    from repro.service.client import ServiceClient
    from repro.sim.cache import ResultCache
    from repro.sim import runner
    from repro.sim.runner import ExperimentRunner
    from repro.sim.sampling import SampledRun
    from repro.sim.simulator import Simulator
    from repro.workloads.synthetic import SyntheticTraceGenerator

    tracer.wrap(Pipeline, "run", "pipeline")
    tracer.wrap(ArrayPipeline, "run", "pipeline")
    for policy in (GatingPolicy, DCGPolicy, PLBPolicy):
        tracer.wrap(policy, "observe", "core")
    tracer.wrap(PowerAccountant, "observe", "power")
    for method in ("fetch", "load", "store", "prewarm_data_region"):
        tracer.wrap(CacheHierarchy, method, "memory")
    tracer.wrap(BranchPredictor, "predict", "frontend")
    tracer.wrap(BranchPredictor, "resolve", "frontend")
    tracer.wrap_iterator(SyntheticTraceGenerator, "workloads")
    tracer.wrap(SampledRun, "run_window", "sim.sampling")
    tracer.wrap(Simulator, "run_benchmark", "sim", span=True)
    tracer.wrap(ExperimentRunner, "run_many", "sim.runner")
    # the runner's own reference, so only grid batches are timed here
    tracer.wrap(runner, "execute_specs", "sim.parallel")
    tracer.wrap(ResultCache, "get", "sim.cache",
                outcome=lambda result: result is not None)
    tracer.wrap(ResultCache, "put", "sim.cache", timed=True)
    tracer.wrap(ServiceClient, "submit", "service", span=True)
    tracer.wrap(ServiceClient, "result_payload", "service", span=True)
