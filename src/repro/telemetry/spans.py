"""Structured tracing: explicit spans published atomically as JSONL.

A *span* is one timed unit of work at a named site (``driver.grid``,
``queue.enqueue``, ``queue.claim``, ``worker.replay``,
``queue.complete``).  Spans carry a *trace id* — one opaque request id
minted by whoever starts the work — and the queue propagates it across
process boundaries inside the job envelope (transport, not identity:
the trace id never enters a fingerprint), so a single id connects the
runner's grid submission to the enqueue, the worker's claim, the
replay, and the completion marker even when those happen in different
processes on different hosts.

Durations come from :func:`time.perf_counter` (monotonic — immune to
wall-clock steps); the start timestamp is wall-clock so spans from
different hosts can be coarsely ordered.  Spans buffer in-process and
the whole buffer is republished through
:func:`repro.atomicio.publish_atomically` to
``<cache_dir>/telemetry/spans/<host>-<pid>.jsonl`` — one file per
process, so writers never contend and a reader can never observe a torn
line.  ``cache gc`` sweeps stale span files on the consumed-marker age
bound (see :func:`repro.harness.cache.gc_cache_tree`).

Tracing is **no-op by default**: :func:`span` performs one is-None
check (the chaoskit discipline — see :mod:`repro.harness.faults`) and
returns a shared do-nothing context manager unless a recorder was
installed via :func:`enable` / :func:`install_from_env`
(``REPRO_TELEMETRY=1``).  The perf floors in ``benchmarks/`` run with
tracing disabled and enforce that the disabled path stays free.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from pathlib import Path

from repro.atomicio import TMP_PREFIX, publish_atomically

from .metrics import percentile

#: Schema version stamped into every span record.
SPAN_FORMAT = 1

#: Environment opt-in: any value other than ""/"0" enables tracing in
#: processes that call :func:`install_from_env` (the queue worker CLI,
#: the runner's queue backend), and is inherited by worker subprocesses
#: so one setting lights up the whole fleet.
ENV_VAR = "REPRO_TELEMETRY"

#: Span files live under ``<cache_dir>/telemetry/spans/``.
SPANS_SUBDIR = ("telemetry", "spans")

# Module-level recorder: None (the default) keeps span() a single
# attribute load + is-None check on the hot path.
_recorder: "SpanRecorder | None" = None

# Current trace-context stack (innermost last).  Process-wide, not
# thread-local: every span-emitting path (runner, worker loop) runs on
# its process's main thread; helper threads such as the lease heartbeat
# emit no spans.
_trace_stack: list[str] = []


def spans_directory(cache_dir) -> Path:
    """Where the span files for *cache_dir*'s fleet live."""
    directory = Path(cache_dir)
    for part in SPANS_SUBDIR:
        directory = directory / part
    return directory


def new_trace_id() -> str:
    """Mint an opaque request id (uuid4-derived; transport, not identity)."""
    return uuid.uuid4().hex[:16]


def current_trace() -> str | None:
    """The innermost active trace id, or None outside any context."""
    return _trace_stack[-1] if _trace_stack else None


class _TraceScope:
    """Context manager pushing a trace id for the duration of a block."""

    __slots__ = ("trace",)

    def __init__(self, trace: str) -> None:
        self.trace = trace

    def __enter__(self) -> str:
        _trace_stack.append(self.trace)
        return self.trace

    def __exit__(self, exc_type, exc, tb) -> bool:
        _trace_stack.pop()
        return False


def trace_scope(trace: str | None = None) -> _TraceScope:
    """Enter a trace context; mints a fresh id when *trace* is None.

    Spans recorded inside the block inherit the id unless they pass an
    explicit ``trace=`` (workers do, from the claimed envelope).
    """
    return _TraceScope(trace if trace is not None else new_trace_id())


def maybe_trace_scope(trace: str | None = None):
    """Like :func:`trace_scope`, but a shared no-op while disabled.

    The producer-side entry point: with tracing off, no context is
    pushed, so :func:`current_trace` stays None and the queue stamps no
    ``trace`` key into envelopes — disabled runs leave zero residue.
    """
    if _recorder is None:
        return _NOOP_SPAN
    return trace_scope(trace)


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Span:
    """One timed unit of work; records itself on context-manager exit."""

    __slots__ = ("recorder", "site", "trace", "attrs", "_start_wall", "_start_mono")

    def __init__(self, recorder: "SpanRecorder", site: str, trace, attrs: dict) -> None:
        self.recorder = recorder
        self.site = site
        self.trace = trace
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (resolved engine, ...)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._start_wall = time.time()
        self._start_mono = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_mono
        # A span opened before its trace id is known (a worker claiming
        # an envelope learns the id from the decode *inside* the span)
        # may deliver it late via ``set(trace=...)``.
        trace = self.trace
        if trace is None:
            trace = self.attrs.pop("trace", None)
        record = {
            "format": SPAN_FORMAT,
            "trace": trace,
            "site": self.site,
            "host": self.recorder.host,
            "pid": self.recorder.pid,
            "ts": round(self._start_wall, 6),
            "dur": round(duration, 6),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        for key, value in self.attrs.items():
            record.setdefault(key, value)
        self.recorder.record(record)
        return False


class SpanRecorder:
    """Buffers spans and republishes the process's span file atomically."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.path = self.directory / f"{self.host}-{self.pid}.jsonl"
        self._records: list[dict] = []

    def record(self, record: dict) -> None:
        self._records.append(record)
        # Publish after every completed span: grids record tens of
        # spans per process, so the O(n) rewrite stays trivially cheap,
        # and the file is always complete — a worker killed mid-run
        # loses at most the span in flight, never the file.
        self.flush()

    def flush(self) -> None:
        if not self._records:
            return
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in self._records
        )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            publish_atomically(self.path, lambda handle: handle.write(payload))
        except OSError:
            # Telemetry is strictly best-effort: a full or vanished
            # spans directory must never take down the work it observes.
            pass


def enabled() -> bool:
    return _recorder is not None


def enable(cache_dir) -> SpanRecorder:
    """Install a recorder writing under *cache_dir*'s spans directory."""
    global _recorder
    if _recorder is not None:
        _recorder.flush()
    _recorder = SpanRecorder(spans_directory(cache_dir))
    return _recorder


def disable() -> None:
    """Flush and uninstall the recorder (back to the no-op fast path)."""
    global _recorder
    if _recorder is not None:
        _recorder.flush()
    _recorder = None


def install_from_env(cache_dir) -> SpanRecorder | None:
    """Enable tracing iff ``REPRO_TELEMETRY`` is set (and not "0")."""
    if os.environ.get(ENV_VAR, "0") in ("", "0"):
        return None
    return enable(cache_dir)


def span(site: str, trace: str | None = None, **attrs):
    """A context manager timing one unit of work at *site*.

    The disabled path is one is-None check returning a shared no-op
    object — the same discipline as chaoskit's ``maybe_*`` hooks, so
    instrumented call sites cost nothing in ordinary runs.
    """
    recorder = _recorder
    if recorder is None:
        return _NOOP_SPAN
    return Span(recorder, site, trace if trace is not None else current_trace(), attrs)


def flush() -> None:
    """Flush the installed recorder's buffer (no-op when disabled)."""
    if _recorder is not None:
        _recorder.flush()


def read_spans(cache_dir) -> list[dict]:
    """Every span record published under *cache_dir*, oldest file first.

    Tolerates concurrent writers and foreign junk: unreadable files and
    unparsable lines are skipped, never raised.
    """
    directory = spans_directory(cache_dir)
    records: list[dict] = []
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.jsonl")):
        # Temp files keep the destination suffix; an in-flight (or
        # killed-writer) publication is not a span file yet.
        if path.name.startswith(TMP_PREFIX):
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def queue_latency_summary(cache_dir) -> dict:
    """Span-derived queue latency percentiles for ``--status`` views.

    ``queue.complete`` spans carry the two envelope-derived intervals —
    ``enqueue_to_claim`` (backlog pressure: how long jobs waited for a
    lease) and ``claim_to_done`` (service time: lease to done-marker) —
    so the rollup only needs that one site.  Shape::

        {"spans": total_span_records,
         "enqueue_to_claim": {"count", "p50", "p90", "p99"} | None,
         "claim_to_done":    {"count", "p50", "p90", "p99"} | None}
    """
    records = read_spans(cache_dir)
    summary: dict = {"spans": len(records)}
    for key in ("enqueue_to_claim", "claim_to_done"):
        values = [
            float(record[key])
            for record in records
            if record.get("site") == "queue.complete"
            and isinstance(record.get(key), (int, float))
        ]
        if values:
            summary[key] = {
                "count": len(values),
                "p50": round(percentile(values, 0.50), 6),
                "p90": round(percentile(values, 0.90), 6),
                "p99": round(percentile(values, 0.99), 6),
            }
        else:
            summary[key] = None
    return summary
