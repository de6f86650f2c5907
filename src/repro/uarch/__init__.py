"""Cycle-level out-of-order superscalar simulator.

This package is the reproduction's stand-in for SimpleScalar/Wattch: a
trace-driven, event-accurate timing model of the processor in table 1 of
the paper, extended with the small issue-queue changes of section 3
(``new_head`` pointer, ``max_new_range`` register, hint-NOOP stripping and
instruction tags).

Trace-replay architecture
-------------------------

Functional emulation is decoupled from the timing loop.  The committed
dynamic instruction stream of a (program, instruction-budget) pair is a
pure function of its inputs, so :mod:`repro.uarch.trace` runs the
:class:`~repro.uarch.emulator.FunctionalEmulator` **once**, lowers the
stream into a :class:`~repro.uarch.trace.DecodedTrace` — flat parallel
arrays of pc, next-pc, branch outcome, memory address and pre-decoded
timing attributes (classification flags, latency, functional-unit
ordinal, rename operand specs) — and the
:class:`~repro.uarch.core.OutOfOrderCore` *replays* those arrays by
index.  Decoded traces are memoised in-process and may be cached on disk
(:class:`~repro.uarch.trace.TraceCache`, content-addressed by program
text + budget + emulator source digest), so a (benchmark × technique)
grid emulates each benchmark once, not once per technique.

Instruction budgets above the decoded-trace window size (default
:data:`~repro.uarch.config.DEFAULT_TRACE_WINDOW_ENTRIES`, ~16k) stream:
the emulator's output is lowered into fixed-size windows
(:class:`~repro.uarch.trace.TraceWindowStream`), the disk cache stores
them independently addressable under one fingerprint, and the core
replays window by window with microarchitectural state carried across
boundaries — statistics are bit-identical to a monolithic replay while
peak decoded-trace memory stays bounded by the window size, which is
what makes 100k+ instruction budgets practical.

To force live emulation (bypassing the memo and the disk cache) pass
``live_emulation=True`` to :func:`~repro.uarch.core.simulate`, or set the
``REPRO_LIVE_EMULATION`` environment variable; the result is statistically
identical, just slower.  Feeding :class:`OutOfOrderCore` a plain iterable
of :class:`~repro.uarch.emulator.DynamicInstruction` also still works —
it is lowered into a ``DecodedTrace`` on construction.

Main entry points:

* :class:`~repro.uarch.config.ProcessorConfig` -- the machine description
  (``ProcessorConfig.hpca2005()`` is table 1).
* :class:`~repro.uarch.emulator.FunctionalEmulator` -- architectural
  execution of an IR program, producing the committed instruction stream.
* :class:`~repro.uarch.trace.DecodedTrace` / ``get_decoded_trace`` -- the
  pre-decoded replay arrays and their memo/cache front door.
* :class:`~repro.uarch.core.OutOfOrderCore` -- the timing model; pair it
  with a resizing policy from :mod:`repro.techniques` and run.
* :mod:`repro.uarch.engine` -- the pluggable replay kernels behind the
  timing loop: ``scalar`` (the reference) and ``native`` (compiled C,
  the default where it builds), bit-identical and pinned via
  ``engine=`` / ``REPRO_REPLAY_KERNEL``.
* :func:`~repro.uarch.core.simulate` -- convenience wrapper that wires the
  decoded trace, a replay engine, a policy and the statistics together.
"""

from repro.uarch.config import DEFAULT_TRACE_WINDOW_ENTRIES, ProcessorConfig
from repro.uarch.emulator import DynamicInstruction, EmulationLimitExceeded, FunctionalEmulator
from repro.uarch.stats import SimulationStats, merge_stats
from repro.uarch.trace import (
    DecodedTrace,
    TraceCache,
    TraceWindowStream,
    get_decoded_trace,
    get_trace_columns,
    get_trace_span_stream,
    get_trace_stream,
    trace_events,
)
from repro.uarch.core import OutOfOrderCore, simulate, simulate_span
from repro.uarch.engine import (
    ReplayEngine,
    ScalarEngine,
    available_engines,
    get_engine,
    resolve_engine_name,
)

__all__ = [
    "DEFAULT_TRACE_WINDOW_ENTRIES",
    "ProcessorConfig",
    "DynamicInstruction",
    "EmulationLimitExceeded",
    "FunctionalEmulator",
    "SimulationStats",
    "merge_stats",
    "DecodedTrace",
    "TraceCache",
    "TraceWindowStream",
    "get_decoded_trace",
    "get_trace_columns",
    "get_trace_span_stream",
    "get_trace_stream",
    "trace_events",
    "OutOfOrderCore",
    "simulate",
    "simulate_span",
    "ReplayEngine",
    "ScalarEngine",
    "available_engines",
    "get_engine",
    "resolve_engine_name",
]
