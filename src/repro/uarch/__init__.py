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
:class:`~repro.uarch.emulator.FunctionalEmulator` **once** and keeps
only what it decided: four compact columns per trace
(:class:`~repro.uarch.trace.TraceWindow` — pc, next pc, memory address
and branch outcome, 25 bytes per instruction).  Everything fixed by the
static instruction (classification flags, latency, functional-unit
ordinal, issue-queue tag, hint payload, rename operand specs) lives once
per program in a :class:`~repro.uarch.trace.StaticTable`, built from
the program's layout and indexed by ``(pc - CODE_BASE) >> 2``.  Both
replay kernels read each fetched entry's row through that index; nothing
is decoded per entry.  Columns are memoised in-process and may be cached
on disk (:class:`~repro.uarch.trace.TraceCache`), both keyed by the
*emulation digest* (program text without hint payloads and tags) +
budget + emulator source digest.  Hints leave architectural state alone,
so a (benchmark × technique) grid emulates each benchmark once and
every program replays the uninstrumented program's trace: the tagged
``extension`` and ``improved`` programs through their own tables, and
the ``noop`` program with a :class:`~repro.uarch.trace.HintMap`, whose
hint NOOPs both kernels expand at fetch.

A replay reads the whole trace as one window of columns, handed over
with the table by a :class:`~repro.uarch.trace.TraceWindowStream`; a
fresh emulation runs whole, is stored once and memoised as the
emulator's own columns.

To force live emulation of the program itself, hints included
(bypassing the memo, the disk cache and the hint map) pass
``live_emulation=True`` to :func:`~repro.uarch.core.simulate`, or set the
``REPRO_LIVE_EMULATION`` environment variable; the result is statistically
identical, just slower.  A sequence of
:class:`~repro.uarch.emulator.DynamicInstruction` becomes a stream
through :meth:`~repro.uarch.trace.TraceWindowStream.from_dynamic_stream`.

Main entry points:

* :class:`~repro.uarch.config.ProcessorConfig` -- the machine description
  (``ProcessorConfig.hpca2005()`` is table 1).
* :class:`~repro.uarch.emulator.FunctionalEmulator` -- architectural
  execution of an IR program, producing the committed instruction stream.
* :class:`~repro.uarch.trace.TraceWindow` / :class:`~repro.uarch.trace.StaticTable`
  / ``get_trace_stream`` -- the trace columns, the per-program static
  table, and their memo/cache front door.
* :class:`~repro.uarch.core.OutOfOrderCore` -- the timing model; pair it
  with a resizing policy from :mod:`repro.techniques` and run.
* :mod:`repro.uarch.engine` -- the pluggable replay kernels behind the
  timing loop: ``scalar`` (the reference) and ``native`` (compiled C,
  the default where it builds), bit-identical and pinned via
  ``engine=`` / ``REPRO_REPLAY_KERNEL``.
* :func:`~repro.uarch.core.simulate` -- convenience wrapper that wires the
  trace stream, a replay engine, a policy and the statistics together.
"""

from repro.uarch.config import ProcessorConfig
from repro.uarch.emulator import DynamicInstruction, EmulationLimitExceeded, FunctionalEmulator
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import (
    StaticTable,
    TraceCache,
    TraceWindow,
    TraceWindowStream,
    get_trace_columns,
    get_trace_stream,
    trace_events,
)
from repro.uarch.core import OutOfOrderCore, simulate
from repro.uarch.engine import (
    ReplayEngine,
    ScalarEngine,
    available_engines,
    get_engine,
    resolve_engine_name,
)

__all__ = [
    "ProcessorConfig",
    "DynamicInstruction",
    "EmulationLimitExceeded",
    "FunctionalEmulator",
    "SimulationStats",
    "StaticTable",
    "TraceCache",
    "TraceWindow",
    "TraceWindowStream",
    "get_trace_columns",
    "get_trace_stream",
    "trace_events",
    "OutOfOrderCore",
    "simulate",
    "ReplayEngine",
    "ScalarEngine",
    "available_engines",
    "get_engine",
    "resolve_engine_name",
]
