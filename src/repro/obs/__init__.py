"""Unified observability layer: journal, tracing, metrics, histograms.

The subsystem the rest of the repo reports through:

* :mod:`~repro.obs.events` — structured JSON-lines run journal
  (``REPRO_LOG_DIR`` / ``REPRO_LOG=stderr``; disabled by default).
* :mod:`~repro.obs.tracing` — trace/span IDs propagated through the
  job queue and into worker subprocesses, so one command (or one
  service job) yields one trace.
* :mod:`~repro.obs.metrics` — the bounded-reservoir latency histogram
  behind the service's JSON ``/metrics`` percentiles.
* :mod:`~repro.obs.histograms` — opt-in per-cycle occupancy/gating
  histograms (``REPRO_HISTOGRAMS=1``), off the hot path when disabled.
* :mod:`~repro.obs.summary` — journal post-processing for
  ``repro events tail|summarize``.

Everything is standard library; with no environment configuration the
whole layer is inert.
"""

from .events import (EventJournal, JOURNAL_FILENAME, LOG_DIR_ENV_VAR,
                     LOG_ENV_VAR, SCHEMA_VERSION, configure_journal,
                     get_journal, journal_path_from_env, read_events)
from .metrics import Histogram
from .histograms import CycleHistograms, HISTOGRAMS_ENV_VAR, histograms_enabled
from .summary import (format_event_line, format_summary, summarize_events,
                      summarize_journal, tail_events)
from .tracing import (SpanContext, activate, current_context, new_span_id,
                      new_trace_id, span)

__all__ = [
    "CycleHistograms",
    "EventJournal",
    "HISTOGRAMS_ENV_VAR",
    "Histogram",
    "JOURNAL_FILENAME",
    "LOG_DIR_ENV_VAR",
    "LOG_ENV_VAR",
    "SCHEMA_VERSION",
    "SpanContext",
    "activate",
    "configure_journal",
    "current_context",
    "format_event_line",
    "format_summary",
    "get_journal",
    "histograms_enabled",
    "journal_path_from_env",
    "new_span_id",
    "new_trace_id",
    "read_events",
    "span",
    "summarize_events",
    "summarize_journal",
    "tail_events",
]
