"""fleetscope: structured tracing, fleet metrics, and the trend gate.

The observability plane for the distributed harness (docs/observability.md):

* :mod:`repro.telemetry.spans` — explicit span objects with monotonic
  durations, propagated driver→enqueue→claim→replay→complete through
  the queue envelope under one request id, published atomically to
  ``<cache_dir>/telemetry/spans/<host>-<pid>.jsonl``.  No-op by default
  (one is-None check); opt in with ``REPRO_TELEMETRY=1``.
* :mod:`repro.telemetry.metrics` — the counter registry behind
  ``cache_stats()`` and the queue counters, both sharing one
  ``snapshot()`` shape.
* :mod:`repro.telemetry.trend` — ``python -m repro.telemetry.trend``
  gates the ``BENCH_trace.json`` perf trajectory with a MAD-based
  noise band.

This package is imported by the harness layer only; the
reprolint ``telemetry-purity`` rule forbids it under ``repro/uarch/``
(the replay hot path) and anywhere near fingerprint construction.
"""

from repro.telemetry.metrics import (
    Counter,
    MetricsRegistry,
    counter_property,
    percentile,
)
from repro.telemetry.spans import (
    ENV_VAR,
    SPAN_FORMAT,
    Span,
    SpanRecorder,
    current_trace,
    disable,
    enable,
    enabled,
    flush,
    install_from_env,
    maybe_trace_scope,
    new_trace_id,
    queue_latency_summary,
    read_spans,
    span,
    spans_directory,
    trace_scope,
)

__all__ = [
    "Counter",
    "MetricsRegistry",
    "counter_property",
    "percentile",
    "ENV_VAR",
    "SPAN_FORMAT",
    "Span",
    "SpanRecorder",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "flush",
    "install_from_env",
    "maybe_trace_scope",
    "new_trace_id",
    "queue_latency_summary",
    "read_spans",
    "span",
    "spans_directory",
    "trace_scope",
]
