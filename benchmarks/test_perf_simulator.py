"""Micro-benchmark: simulator hot-path throughput in cycles per second.

Records how many machine cycles the timing model simulates per wall-clock
second on the gzip baseline run, so successive PRs have a performance
trajectory for the per-cycle hot path (issue select, wakeup broadcast,
dispatch, fetch).  Since PR 5 the trajectory is **per replay engine**
(:mod:`repro.uarch.engine`): each kernel gets its own cold/warm entry in
``BENCH_trace.json`` and its own floor.  Two rates are measured per
engine:

* **cold** — a fresh in-process trace memo and an empty on-disk trace
  cache, with the **windowed streaming path on** (the budget is split
  across several trace windows), so the measured time includes one
  functional emulation, building the program's static table, packing
  each emulated window into compact columns, the windowed cache store
  and the timed window-by-window replay;
* **warm** — the trace's columns and static table already memoised by
  the cold rounds, so the measured time is the replay kernel alone,
  reading ``memoryview`` windows of the memoised columns in place: no
  per-window decode remains on this path (the steady state of a grid
  run);
* **warm noop** — the same warm replay of gzip's NOOP-instrumented
  program under the software policy, so the hint path (hints applied
  in the native kernel, ``on_hint`` in the scalar one) has a series of
  its own.

Reference points on the development machine (1-core container):

* pre-optimisation seed: ~17.4k cycles/s
* PR 1 (incremental ready-set + batched writeback + deque front end):
  ~24.7k cycles/s (1.42x)
* PR 2 (trace pre-decode & replay, pre-compiled emulator specs, bitmask
  rename free-list, event-driven sampling, pooled ROB/IQ entries):
  ~58k cycles/s cold / ~69k cycles/s warm (2.3x / 2.8x over PR 1)
* PR 3 (windowed trace decode & streaming replay; the cold run streams
  the 12k budget through 4k-instruction windows): rates within noise of
  PR 2 — windowing bounds decode memory without giving back throughput.
* PR 10 (native compiled kernel): the lazily-compiled C replay kernel
  (:mod:`repro.uarch.engine.native`) measures ~280k cycles/s cold /
  ~2.2M warm on this container — ~5.4x / ~35x the scalar rates.  The
  warm (replay-only) multiple clears the ROADMAP's 10x "Python
  ceiling" target more than threefold; the cold multiple is smaller
  because a cold run still pays the Python-side functional emulation
  and per-window pre-decode, which the C loop turns from a minor cost
  into the dominant one (Amdahl, as expected — the ROADMAP tracks
  decode as the next ceiling).

The assertions below are loose floors (about half the measured cold
rate per kernel) so the bench fails only on a genuine hot-path
regression, not on machine noise.  The scalar floor stays at the
≥29k cycles/s the earlier PRs established.  Each run also gates both
rates against the history committed in ``BENCH_trace.json`` next to
this file, holding the fresh sample in memory; only ``pytest
--record-trend`` appends it to the file, so a plain test run leaves the
tree clean.
"""

from __future__ import annotations

import gc
import json
import socket
import time
from pathlib import Path

import pytest

from repro.core import CompilerConfig, compile_program
from repro.techniques import BaselinePolicy, SoftwareDirectedPolicy
from repro.telemetry import trend
from repro.uarch import simulate
from repro.uarch.engine import native_available, resolve_engine_name
from repro.uarch.trace import clear_trace_memo
from repro.workloads import build_benchmark

MAX_INSTRUCTIONS = 12_000
#: Cold runs stream through windows this size (3 windows for the 12k
#: budget), so the floors below are enforced with windowed replay on.
TRACE_WINDOW = 4_096
#: Per-engine floors, ~50% of the cold rate measured on the 1-core dev
#: container so only a genuine regression (not noise) trips them.  The
#: scalar floor is the long-standing ≥29k (comfortably above the PR 1
#: steady state, so losing the replay speedup still fails).
MIN_CYCLES_PER_SECOND = {
    "scalar": 29_000.0,
    # The native C kernel measures ~280k cold / ~2.2M warm here; the
    # floor is ~half the cold rate (and well above any Python kernel)
    # so it trips on "the C fast path silently fell back to something
    # interpreted", not on container noise.
    "native": 150_000.0,
}
#: PR 1 reference rate the ISSUE's 2x target is measured against.
PR1_REFERENCE_CYCLES_PER_SECOND = 24_700.0

ENGINES = ("scalar",) + (("native",) if native_available() else ())

TRAJECTORY_FILE = Path(__file__).with_name("BENCH_trace.json")
TRAJECTORY_LIMIT = 200
#: Schema version of trajectory entries stamped since PR 9; older
#: unstamped entries still parse (``repro.telemetry.trend`` defaults
#: their engine/kind) — the stamp just makes provenance explicit.
TRAJECTORY_FORMAT = 1


def gate_sample(entry: dict, series_keys, record: bool) -> None:
    """Gate a fresh trajectory ``entry`` on each of ``series_keys``.

    The entry is stamped with the schema ``format``, the recording
    ``host`` and (unless the caller set one) the engine label, so a
    trajectory merged across machines stays attributable.  It is gated
    against the committed history in memory, with the trend module's
    band, and appended to the file only when ``record`` is set
    (``pytest --record-trend``).
    """
    entry.setdefault("format", TRAJECTORY_FORMAT)
    entry.setdefault("host", socket.gethostname())
    entry.setdefault("engine", resolve_engine_name(None))
    evaluations = {
        key: trend.gate_series(key, TRAJECTORY_FILE, sample=entry)
        for key in series_keys
    }
    if record:
        _record_trajectory(entry)
    for key, evaluation in evaluations.items():
        assert evaluation is None or evaluation["regressed"] is not True, (
            f"perf trajectory regression on {key}: "
            f"latest {evaluation['latest']:,.2f} vs median "
            f"{evaluation['median']:,.2f} "
            f"(tolerance {evaluation['tolerance']:,.2f}); see "
            f"python -m repro.telemetry.trend"
        )


def _record_trajectory(entry: dict) -> None:
    """Append ``entry`` to the BENCH_trace.json perf history (bounded)."""
    history: list[dict] = []
    try:
        history = json.loads(TRAJECTORY_FILE.read_text(encoding="utf-8"))
        if not isinstance(history, list):
            history = []
    except (FileNotFoundError, json.JSONDecodeError):
        history = []
    history.append(entry)
    TRAJECTORY_FILE.write_text(
        json.dumps(history[-TRAJECTORY_LIMIT:], indent=2) + "\n", encoding="utf-8"
    )


def _timed_simulate(
    engine: str, program=None, policy=None, **kwargs
) -> tuple[int, float]:
    program = program or build_benchmark("gzip")
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        stats = simulate(
            program,
            policy or BaselinePolicy(),
            max_instructions=MAX_INSTRUCTIONS,
            engine=engine,
            **kwargs,
        )
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return stats.cycles, elapsed


@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_cycle_throughput(benchmark, tmp_path, engine, record_trend):
    # Warm the generator and module state so the bench isolates the
    # emulate+decode+replay pipeline, and spin the CPU up to steady state
    # (the container throttles hard from idle).
    build_benchmark("gzip")
    for _ in range(2):
        simulate(
            build_benchmark("gzip"),
            BaselinePolicy(),
            max_instructions=MAX_INSTRUCTIONS,
            live_emulation=True,
            engine=engine,
        )

    trace_dir = tmp_path / "trace-cache"
    cold_rates: list[float] = []
    cycles_holder: list[int] = []

    def _cold_run() -> tuple[int, float]:
        # A fresh memo and a fresh cache directory every round: the timed
        # region covers emulation, the static table, the windowed cache
        # store and the streaming window-by-window replay.
        clear_trace_memo()
        round_dir = trace_dir / str(len(cold_rates))
        cycles, elapsed = _timed_simulate(
            engine, trace_cache=str(round_dir), trace_window=TRACE_WINDOW
        )
        cold_rates.append(cycles / elapsed)
        cycles_holder.append(cycles)
        return cycles, elapsed

    benchmark.pedantic(_cold_run, rounds=5, iterations=1)
    cycles = cycles_holder[-1]
    cold_rate = max(cold_rates)

    # Steady state: columns and table are memoised, only the core replays.
    warm_rates = []
    for _ in range(5):
        warm_cycles, warm_elapsed = _timed_simulate(engine)
        warm_rates.append(warm_cycles / warm_elapsed)
    warm_rate = max(warm_rates)

    # The hint path, warm: gzip's NOOP program under the software policy.
    noop = compile_program(
        build_benchmark("gzip"), CompilerConfig(), mode="noop"
    ).instrumented_program
    _timed_simulate(engine, noop, SoftwareDirectedPolicy("noop"))
    noop_rates = []
    for _ in range(5):
        noop_cycles, noop_elapsed = _timed_simulate(
            engine, noop, SoftwareDirectedPolicy("noop")
        )
        noop_rates.append(noop_cycles / noop_elapsed)
    noop_rate = max(noop_rates)

    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["cycles_simulated"] = cycles
    benchmark.extra_info["cycles_per_second"] = round(cold_rate)
    benchmark.extra_info["cycles_per_second_warm"] = round(warm_rate)
    benchmark.extra_info["speedup_vs_pr1_cold"] = round(
        cold_rate / PR1_REFERENCE_CYCLES_PER_SECOND, 2
    )
    entry = {
        "timestamp": time.time(),
        "engine": engine,
        "max_instructions": MAX_INSTRUCTIONS,
        "trace_window": TRACE_WINDOW,
        "cycles": cycles,
        "cycles_per_second_cold": round(cold_rate),
        "cycles_per_second_warm": round(warm_rate),
        "cycles_per_second_warm_noop": round(noop_rate),
    }
    print(
        f"\n  [{engine}] simulated {cycles} cycles at {cold_rate:,.0f}/s cold "
        f"(trace cache+emulation), {warm_rate:,.0f}/s warm (replay only) and "
        f"{noop_rate:,.0f}/s warm on the noop program; "
        f"{cold_rate / PR1_REFERENCE_CYCLES_PER_SECOND:.2f}x the PR 1 reference"
    )
    floor = MIN_CYCLES_PER_SECOND[engine]
    assert cycles > 0
    assert cold_rate > floor
    assert warm_rate > floor
    assert noop_rate > floor

    # Perf-trajectory gate (PR 9): beyond the absolute floors above, the
    # fresh sample must sit inside the MAD noise band of this engine's
    # committed history.  A too-short history gates as None, not fail.
    gate_sample(
        entry,
        (f"engine/{engine}/cold", f"engine/{engine}/warm", f"engine/{engine}/warm_noop"),
        record_trend,
    )
