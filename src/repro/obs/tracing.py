"""Span tracing across the CLI, the service, and worker processes.

One logical request — ``repro compare --jobs N`` say, or one job on
the service — fans out into queue traffic and simulations in worker
subprocesses.  This module gives all of those a shared *trace*: a
trace ID minted once at the entry point (the CLI command, or the
``http.submit`` span of one ``POST /v1/runs`` batch), plus a
parent-linked *span* per unit of work.  Everything the
:class:`~repro.obs.events.EventJournal` records while a span is active
carries the active trace/span IDs, so ``repro events summarize`` can
group one run's or one job's events.

Propagation is explicit at each boundary:

* **threads** — the active context is thread-local; :func:`span` and
  :func:`activate` push/pop on the calling thread only.
* **the job queue** — a :class:`~repro.service.jobs.Job` records the
  submitter's ``trace_id``/``parent_span_id``; the worker thread
  activates them before running the job.
* **subprocesses** — a :class:`SpanContext` is picklable; pass it to
  the child (worker pool initargs, fork args) and ``activate`` it
  there.

Everything is standard library and allocation-light; with no journal
configured a span costs two ``perf_counter`` calls and a dataclass.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

__all__ = ["OpenSpan", "SpanContext", "activate", "current_context",
           "new_span_id", "new_trace_id", "span"]


@dataclass(frozen=True)
class SpanContext:
    """The active (trace, span) pair; picklable for process hand-off."""

    trace_id: str
    span_id: str


_local = threading.local()


def new_trace_id() -> str:
    """A fresh 32-hex-char trace ID."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span ID."""
    return uuid.uuid4().hex[:16]


def current_context() -> Optional[SpanContext]:
    """The calling thread's active context, or None outside any span."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def _push(context: SpanContext) -> None:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(context)


def _pop() -> None:
    _local.stack.pop()


@contextmanager
def activate(context: Optional[SpanContext]) -> Iterator[None]:
    """Install a remote context (from a job record or a parent process)
    as the calling thread's active context.

    ``None`` is accepted and is a no-op, so call sites can pass an
    optional context without branching.
    """
    if context is None:
        yield
        return
    _push(context)
    try:
        yield
    finally:
        _pop()


class OpenSpan:
    """A span started under the calling thread's active context but
    not made active itself; :meth:`end` emits its ``span`` event.

    :func:`span` wraps one around a ``with`` block.  Work that several
    spans cover at once (the specs of one shared simulation) opens one
    per unit, all siblings, and :func:`activate` s each in turn.
    """

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self.parent = current_context()
        self.context = SpanContext(
            self.parent.trace_id if self.parent else new_trace_id(),
            new_span_id())
        self.start = time.perf_counter()

    def end(self, status: str = "ok") -> None:
        from .events import get_journal
        parent = self.parent
        get_journal().emit(
            "span", trace_id=self.context.trace_id,
            span_id=self.context.span_id,
            parent_span_id=parent.span_id if parent else None,
            name=self.name, seconds=time.perf_counter() - self.start,
            status=status, **self.attrs)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[SpanContext]:
    """Open a span named ``name``; yields its :class:`SpanContext`.

    The span joins the calling thread's active trace (starting a new
    trace when there is none), becomes the active context for its
    duration, and on exit emits one ``span`` event — name, trace/span/
    parent IDs, wall-clock seconds, ``status`` (``"ok"`` or
    ``"error"``), and any keyword attributes — to the process journal.
    """
    opened = OpenSpan(name, **attrs)
    _push(opened.context)
    status = "ok"
    try:
        yield opened.context
    except BaseException:
        status = "error"
        raise
    finally:
        _pop()
        opened.end(status)

