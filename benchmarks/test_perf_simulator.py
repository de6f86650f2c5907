"""Micro-benchmark: simulator hot-path throughput in cycles per second.

Records how many machine cycles the timing model simulates per wall-clock
second on the gzip baseline run, so successive PRs have a performance
trajectory for the per-cycle hot path (issue select, wakeup broadcast,
dispatch, fetch).  Since PR 5 the trajectory is **per replay engine**
(:mod:`repro.uarch.engine`): each kernel gets its own cold/warm entry in
``BENCH_trace.json`` and its own floor.  Two rates are measured per
engine:

* **cold** — a fresh in-process trace memo and an empty on-disk trace
  cache, so the measured time includes one functional emulation (which
  writes the trace's compact columns itself), building the program's
  static table, the trace cache store and the timed replay;
* **warm** — the trace's columns and static table already memoised by
  the cold rounds, so the measured time is the replay kernel alone,
  reading the memoised columns in place: no decode remains on this path
  (the steady state of a grid run);
* **warm noop** (``test_noop_path_throughput``) — the same warm
  replay of gzip's NOOP-instrumented program under the software
  policy, so the hint path (hints applied in the native kernel,
  ``on_hint`` in the scalar one) has a series of its own.  gzip's
  program applies only 29 hints at this budget, so the series barely
  sees that path.  One replay takes about 3 ms under the native
  kernel, so each of 5 runs repeats it for at least 100 ms of CPU and
  is scaled to reference seconds by host probes at its ends
  (:mod:`repro.telemetry.hostspeed`); the best run is gated under
  ``engine/<name>/warm_noop_ref`` in cycles per reference second, from
  ``noop_path`` entries of its own.  The raw ``warm_noop`` samples of
  the throughput entries, best of five single replays, read the host's
  speed phase as often as the kernel's; they stay in the file and form
  no series;
* **warm gcc noop** (``test_hint_path_throughput``) — warm replays of
  gcc's NOOP program, the densest in hints (4,825 at the grid's
  100k/20k), whose hints the kernels expand at fetch from the plain
  program's trace and apply at dispatch: cycles per CPU second, the
  best of 5, at a budget per engine where one replay takes over
  100 ms, gated under ``engine/<name>/warm_gcc_noop``.

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

The functional emulator has a series of its own, ``emulator/kinstr_per_s``:
thousands of gcc instructions emulated per CPU second, segment
compilation included (gcc compiles the most segments of the suite).

The compiler has one too, ``compile/grid_ref_s``
(``test_compile_layer_time``): the reference seconds the figure grid's
33 compiles take on 11 analyses, through a fresh runner, the best of 5
runs, each scaled by host probes at its ends.

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
from repro.core.instrument import ALL_MODES
from repro.harness import RunConfig, SuiteRunner
from repro.techniques import BaselinePolicy, SoftwareDirectedPolicy
from repro.telemetry import trend
from repro.telemetry.hostspeed import reference_seconds
from repro.uarch import FunctionalEmulator, simulate
from repro.uarch.engine import native_available, resolve_engine_name
from repro.uarch.trace import clear_trace_memo
from repro.workloads import SPECINT_BENCHMARKS, build_benchmark

MAX_INSTRUCTIONS = 12_000
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
#: The emulator bench: gcc to the end of this budget takes about 110 ms
#: of CPU on the 2-vCPU dev VM, so one sample stays far above timer
#: noise and still includes compiling gcc's segments.
EMULATOR_BUDGET = 300_000
#: About a third of the 1.9-2.7M instructions/s the segment-compiled
#: emulator measures there (the per-instruction interpreter it replaced:
#: ~1.5M), so the floor trips on a collapse, not on container noise;
#: the trend gate watches for drift.
MIN_EMULATOR_KINSTR_PER_SECOND = 900.0
#: The hint-path bench's budget per engine: one warm replay of gcc's
#: noop program takes 170-200 ms of CPU under the scalar kernel at 12k
#: instructions and 120-190 ms under the native one at 1M (2-vCPU dev
#: VM), well above timer noise.
HINT_PATH_BUDGET = {"scalar": 12_000, "native": 1_000_000}
#: About a third of the rates measured there (scalar 94k cycles/s,
#: native 2.3M, best of 5), so the floor trips on a collapse; the trend
#: gate watches for drift.
MIN_HINT_PATH_CYCLES_PER_SECOND = {"scalar": 30_000.0, "native": 750_000.0}
#: PR 1 reference rate the ISSUE's 2x target is measured against.
PR1_REFERENCE_CYCLES_PER_SECOND = 24_700.0
#: CPU seconds each warm-noop run replays for at least: far above timer
#: and scheduler noise, where one native replay takes about 3 ms.
NOOP_RUN_SECONDS = 0.1
#: Runs of the compile bench; the fastest is the sample.
COMPILE_RUNS = 5
#: About two and a half times the 0.23 reference seconds the grid's
#: compiles took before they ran on integer operand slots (0.11-0.13
#: since), so the ceiling trips on a collapse; the trend gate watches for
#: drift.
MAX_COMPILE_REF_SECONDS = 0.6

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


def _timed_simulate(engine: str, **kwargs) -> tuple[int, float]:
    program = build_benchmark("gzip")
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        stats = simulate(
            program,
            BaselinePolicy(),
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
        # region covers emulation, the static table, the trace cache
        # store and the replay.
        clear_trace_memo()
        round_dir = trace_dir / str(len(cold_rates))
        cycles, elapsed = _timed_simulate(engine, trace_cache=str(round_dir))
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
        "cycles": cycles,
        "cycles_per_second_cold": round(cold_rate),
        "cycles_per_second_warm": round(warm_rate),
    }
    print(
        f"\n  [{engine}] simulated {cycles} cycles at {cold_rate:,.0f}/s cold "
        f"(trace cache+emulation), {warm_rate:,.0f}/s warm (replay only); "
        f"{cold_rate / PR1_REFERENCE_CYCLES_PER_SECOND:.2f}x the PR 1 reference"
    )
    floor = MIN_CYCLES_PER_SECOND[engine]
    assert cycles > 0
    assert cold_rate > floor
    assert warm_rate > floor

    # Perf-trajectory gate (PR 9): beyond the absolute floors above, the
    # fresh sample must sit inside the MAD noise band of this engine's
    # committed history.  A too-short history gates as None, not fail.
    gate_sample(entry, (f"engine/{engine}/cold", f"engine/{engine}/warm"), record_trend)


@pytest.mark.parametrize("engine", ENGINES)
def test_noop_path_throughput(engine, record_trend):
    """Cycles per reference second of warm replays of gzip's noop program
    under the software policy: 5 runs of at least 100 ms of CPU, each
    scaled by host probes at its ends, the best gated in memory under
    ``engine/<name>/warm_noop_ref``."""
    noop = compile_program(
        build_benchmark("gzip"), CompilerConfig(), mode="noop"
    ).instrumented_program

    def replay_noop():
        return simulate(
            noop,
            SoftwareDirectedPolicy("noop"),
            max_instructions=MAX_INSTRUCTIONS,
            engine=engine,
        )

    cycles = replay_noop().cycles  # memoises the trace and its table
    rate = cycles / min(reference_seconds(replay_noop, NOOP_RUN_SECONDS)[0] for _ in range(5))
    print(f"\n  [{engine}] gzip noop: {rate:,.0f} cycles per reference s (best of 5)")
    assert rate > MIN_CYCLES_PER_SECOND[engine]
    entry = {
        "timestamp": time.time(),
        "kind": "noop_path",
        "engine": engine,
        "benchmark": "gzip",
        "max_instructions": MAX_INSTRUCTIONS,
        "cycles": cycles,
        "cycles_per_ref_second": round(rate),
    }
    gate_sample(entry, (f"engine/{engine}/warm_noop_ref",), record_trend)


def test_emulator_throughput(record_trend):
    """Thousands of gcc instructions emulated per CPU second: the best of
    5 fresh emulators, each compiling its segments inside the timed
    region, gated in memory under ``emulator/kinstr_per_s``."""
    program = build_benchmark("gcc")
    times = []
    for _ in range(5):
        emulator = FunctionalEmulator(program)
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            for _columns in emulator.run_collect_windows(EMULATOR_BUDGET):
                pass
            times.append(time.process_time() - start)
        finally:
            gc.enable()
    assert emulator.instructions_executed == EMULATOR_BUDGET
    rate = EMULATOR_BUDGET / min(times) / 1e3
    print(f"\n  [emulator] gcc: {rate:,.0f} kinstr/s (best of {len(times)})")
    assert rate > MIN_EMULATOR_KINSTR_PER_SECOND
    entry = {
        "timestamp": time.time(),
        "kind": "emulator",
        "benchmark": "gcc",
        "max_instructions": EMULATOR_BUDGET,
        "kinstr_per_s": round(rate, 1),
    }
    gate_sample(entry, ("emulator/kinstr_per_s",), record_trend)


@pytest.mark.parametrize("engine", ENGINES)
def test_hint_path_throughput(engine, record_trend):
    """Cycles per CPU second of warm replays of gcc's noop program under
    the software policy: the best of 5, its trace and table memoised by
    a first replay, gated in memory under ``engine/<name>/warm_gcc_noop``."""
    budget = HINT_PATH_BUDGET[engine]
    noop = compile_program(
        build_benchmark("gcc"), CompilerConfig(), mode="noop"
    ).instrumented_program
    clear_trace_memo()
    simulate(noop, SoftwareDirectedPolicy("noop"), max_instructions=budget, engine=engine)
    times = []
    for _ in range(5):
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            stats = simulate(
                noop, SoftwareDirectedPolicy("noop"), max_instructions=budget, engine=engine
            )
            times.append(time.process_time() - start)
        finally:
            gc.enable()
    rate = stats.cycles / min(times)
    print(
        f"\n  [{engine}] gcc noop at {budget:,} instructions: "
        f"{stats.hint_noops_stripped:,} hints, {rate:,.0f} cycles/s "
        f"(best of {len(times)})"
    )
    assert stats.hint_noops_stripped > budget // 40
    assert rate > MIN_HINT_PATH_CYCLES_PER_SECOND[engine]
    entry = {
        "timestamp": time.time(),
        "kind": "hint_path",
        "engine": engine,
        "benchmark": "gcc",
        "max_instructions": budget,
        "cycles": stats.cycles,
        "cycles_per_second": round(rate),
    }
    gate_sample(entry, (f"engine/{engine}/warm_gcc_noop",), record_trend)


def test_compile_layer_time(record_trend):
    """Reference seconds for the figure grid's 33 compiles on 11
    analyses: a fresh runner per run, the best of 5 process-time runs,
    each scaled by host probes at its ends, gated in memory under
    ``compile/grid_ref_s``."""
    for name in SPECINT_BENCHMARKS:
        build_benchmark(name)  # the generator's memo, outside the timed runs
    runners = []

    def compile_grid() -> None:
        runner = SuiteRunner(RunConfig())
        for name in SPECINT_BENCHMARKS:
            for mode in ALL_MODES:
                runner.compilation(name, mode)
        runners.append(runner)

    seconds = min(reference_seconds(compile_grid)[0] for _ in range(COMPILE_RUNS))
    assert all(
        (runner.compile_count, runner.analysis_count) == (33, 11) for runner in runners
    )
    print(f"\n  [compile] 33 compiles, 11 analyses: {seconds:.4f} reference s (best of {COMPILE_RUNS})")
    assert seconds < MAX_COMPILE_REF_SECONDS
    entry = {
        "timestamp": time.time(),
        "kind": "compile",
        "compiles": 33,
        "analyses": 11,
        "ref_s": round(seconds, 4),
    }
    gate_sample(entry, ("compile/grid_ref_s",), record_trend)
