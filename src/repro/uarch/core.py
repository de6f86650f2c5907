"""Simulation front door over the pluggable replay-engine architecture.

The per-cycle timing loop lives behind the
:class:`~repro.uarch.engine.base.ReplayEngine` interface in
:mod:`repro.uarch.engine`: the scalar reference kernel
(:class:`~repro.uarch.engine.scalar.OutOfOrderCore`, re-exported here so
existing imports keep working) and the compiled native kernel
(:class:`~repro.uarch.engine.native.NativeCore`).  This module wires
a kernel together with the trace tiers of :mod:`repro.uarch.trace` and a
resizing policy: :func:`simulate` emulates ``program`` once (memo/disk tiers apply) and
replays it to the end of its budget.  It takes ``engine=`` (``"scalar"``
| ``"native"``; default: the ``REPRO_REPLAY_KERNEL`` environment
variable, else ``native`` where it builds, else ``scalar``).  Engine
statistics are bit-identical, so the choice is transport — like the
worker count — and never affects results or cache fingerprints.
"""

from __future__ import annotations

from typing import Optional

from repro.uarch.config import ProcessorConfig
from repro.uarch.engine import OutOfOrderCore, get_engine
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import TraceCache, get_trace_stream

__all__ = ["OutOfOrderCore", "simulate"]


def simulate(
    program,
    policy=None,
    config: Optional[ProcessorConfig] = None,
    max_instructions: int = 20_000,
    warmup_instructions: int = 0,
    max_cycles: Optional[int] = None,
    trace_cache=None,
    live_emulation: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimulationStats:
    """Convenience wrapper: emulate ``program`` once and replay it under
    ``policy``.

    The functional emulation is decoupled from the timing loop: the
    committed stream's compact columns come from
    :func:`repro.uarch.trace.get_trace_stream` (memoised per process and
    optionally cached on disk), and the selected replay engine replays
    them against the program's static table; statistics are
    bit-identical for every engine.

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
        engine: replay kernel name (None: ``REPRO_REPLAY_KERNEL``, else
            ``"native"`` where it builds, else ``"scalar"``).

    Returns:
        The populated :class:`~repro.uarch.stats.SimulationStats`.
    """
    if trace_cache is not None and not isinstance(trace_cache, TraceCache):
        trace_cache = TraceCache(trace_cache)
    stream = get_trace_stream(
        program, max_instructions, cache=trace_cache, live=live_emulation
    )
    return get_engine(engine).run(
        stream,
        policy,
        config=config,
        warmup_instructions=warmup_instructions,
        max_cycles=max_cycles,
    )
