"""Simulation front door over the pluggable replay-engine architecture.

The per-cycle timing loop lives behind the
:class:`~repro.uarch.engine.base.ReplayEngine` interface in
:mod:`repro.uarch.engine`: the scalar reference kernel
(:class:`~repro.uarch.engine.scalar.OutOfOrderCore`, re-exported here so
existing imports keep working) and the compiled native kernel
(:class:`~repro.uarch.engine.native.NativeCore`).  This module wires
a kernel together with the trace tiers of :mod:`repro.uarch.trace` and a
resizing policy:

* :func:`simulate` — emulate ``program`` once (memo/disk tiers apply)
  and replay it to the end of its budget;
* :func:`simulate_span` — replay one entry span of a trace, freezing
  statistics at the commit of the N-th measured instruction (the
  window-shard entry point of :mod:`repro.harness.shard`).

Both take ``engine=`` (``"scalar"`` | ``"native"``; default: the
``REPRO_REPLAY_KERNEL`` environment variable, else ``native`` where it
builds, else ``scalar``).  Engine statistics are bit-identical, so the
choice is transport — like the trace window size or the worker count —
and never affects results or cache fingerprints.
"""

from __future__ import annotations

from typing import Optional

from repro.uarch.config import ProcessorConfig
from repro.uarch.engine import OutOfOrderCore, get_engine
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import TraceCache, get_trace_span_stream, get_trace_stream

__all__ = ["OutOfOrderCore", "simulate", "simulate_span"]


def simulate(
    program,
    policy=None,
    config: Optional[ProcessorConfig] = None,
    max_instructions: int = 20_000,
    warmup_instructions: int = 0,
    max_cycles: Optional[int] = None,
    trace_cache=None,
    live_emulation: Optional[bool] = None,
    trace_window: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimulationStats:
    """Convenience wrapper: emulate ``program`` once and replay it under
    ``policy``.

    The functional emulation is decoupled from the timing loop: the
    committed stream's compact columns come from
    :func:`repro.uarch.trace.get_trace_stream` (memoised per process and
    optionally cached on disk), and the selected replay engine replays
    them window by window against the program's static table, bounding
    resident trace memory by the window size; statistics are
    bit-identical for every window size and every engine.

    Args:
        program: an IR :class:`~repro.isa.program.Program`.
        policy: a resizing policy from :mod:`repro.techniques`
            (baseline full-size queue when omitted).
        config: processor configuration (table 1 when omitted).
        max_instructions: dynamic instruction budget for the emulator.
        warmup_instructions: committed instructions to run before statistics
            start accumulating (cache/predictor warm-up).
        max_cycles: optional safety cap on simulated cycles.
        trace_cache: optional on-disk trace cache — a
            :class:`~repro.uarch.trace.TraceCache` or a directory path.
        live_emulation: force a fresh functional emulation, bypassing the
            trace memo and the disk cache (default: the
            ``REPRO_LIVE_EMULATION`` environment variable).
        trace_window: replay window size in trace entries (None: the
            library default; 0 replays the whole trace as one window).
        engine: replay kernel name (None: ``REPRO_REPLAY_KERNEL``, else
            ``"native"`` where it builds, else ``"scalar"``).

    Returns:
        The populated :class:`~repro.uarch.stats.SimulationStats`.
    """
    if trace_cache is not None and not isinstance(trace_cache, TraceCache):
        trace_cache = TraceCache(trace_cache)
    stream = get_trace_stream(
        program,
        max_instructions,
        window_size=trace_window,
        cache=trace_cache,
        live=live_emulation,
    )
    return get_engine(engine).run(
        stream,
        policy,
        config=config,
        warmup_instructions=warmup_instructions,
        max_cycles=max_cycles,
    )


def simulate_span(
    program,
    policy=None,
    config: Optional[ProcessorConfig] = None,
    *,
    max_instructions: int,
    first_entry: int = 0,
    last_entry: Optional[int] = None,
    warmup_commits: int = 0,
    measure_commits: Optional[int] = None,
    trace_cache=None,
    trace_window: Optional[int] = None,
    max_cycles: Optional[int] = None,
    live_emulation: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimulationStats:
    """Replay one entry span of a trace, measuring part of it.

    The measure-span entry point behind window sharding
    (:mod:`repro.harness.shard`).  The selected engine replays the
    dynamic trace entries ``[first_entry, last_entry)`` of the (program,
    ``max_instructions``) trace; the first ``warmup_commits`` committed
    instructions are warm-up (statistics reset when they retire, exactly
    like ``simulate``'s ``warmup_instructions``), and with
    ``measure_commits`` set, statistics freeze at the commit of the
    N-th measured instruction while younger entries of the span — the
    shard's *slack* — are still in flight keeping the pipeline fed, so
    the boundary cycle is timed exactly as in an unsharded run.

    A sharded run stitches per-span statistics with
    :func:`repro.uarch.stats.merge_stats`; when every shard warms up
    over the full preceding trace, the stitched statistics are
    bit-identical to one sequential replay — under either engine.
    """
    if trace_cache is not None and not isinstance(trace_cache, TraceCache):
        trace_cache = TraceCache(trace_cache)
    stream = get_trace_span_stream(
        program,
        max_instructions,
        first_entry,
        last_entry,
        window_size=trace_window,
        cache=trace_cache,
        live=live_emulation,
    )
    return get_engine(engine).run_span(
        stream,
        policy,
        config=config,
        warmup_commits=warmup_commits,
        measure_commits=measure_commits,
        max_cycles=max_cycles,
    )
