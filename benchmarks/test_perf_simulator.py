"""Micro-benchmarks: the simulator's layers in reference units.

Every sample is taken one way: five runs of :func:`reference_seconds`,
each repeating one call for at least :data:`RUN_SECONDS` of CPU and
scaled by host probes at its ends (:mod:`repro.telemetry.hostspeed`),
the fastest run's time per call.  A raw time reads the shared host's
speed phase as often as the program's; a reference second does not.
Each replay runs 12k instructions; ``<e>`` is each replay kernel this
host builds (:mod:`repro.uarch.engine`).  The series, and one call of
each:

* ``engine/<e>/cold_ref``: gzip's baseline with a fresh trace memo and a
  fresh trace directory, so the call emulates, stores and replays;
  cycles per reference second;
* ``engine/<e>/warm_ref``: the same replay with the trace memoised;
* ``engine/<e>/hint_ref``: gcc's noop program under the software policy,
  its trace memoised: the densest hint path (557 hints per replay);
* ``emulator/kinstr_per_ref_s``: a fresh gcc emulator to 300k
  instructions, segment compilation included; thousands of
  instructions per reference second;
* ``compile/grid_ref_s``: the figure grid's 33 compiles on 11 analyses
  through a fresh runner; reference seconds, lower is better.

Each sample must beat its series' floor in :data:`FLOORS`, which trips
on a collapse, and sit inside the trend band of the history committed
in ``BENCH_trace.json`` next to this file (:mod:`repro.telemetry.trend`),
which trips on drift.  The sample joins the history in memory only;
``pytest --record-trend`` appends it to the file, so a plain test run
leaves the tree clean.
"""

from __future__ import annotations

import itertools
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
from repro.uarch.engine import native_available
from repro.uarch.trace import clear_trace_memo
from repro.workloads import SPECINT_BENCHMARKS, build_benchmark

MAX_INSTRUCTIONS = 12_000
#: gcc to the end of this budget takes about 120 ms of CPU, compiling
#: its segments on the way.
EMULATOR_BUDGET = 300_000
#: CPU seconds each run repeats its call for at least: far above timer
#: and scheduler noise, where one warm native replay of gzip takes about
#: 2 ms.
RUN_SECONDS = 0.1
#: Runs per sample; the fastest is the sample.
RUNS = 5

#: Which way each series is better, and the bound its sample must beat:
#: about half the median of its first five recorded samples (twice it
#: for seconds), so only a collapse trips it; the trend gate watches for
#: drift.  Each native replay floor sits above every scalar rate
#: recorded (at most 121k), so a native run that silently fell back to
#: Python fails.
FLOORS = {
    "engine/scalar/cold_ref": ("higher", 30_000.0),
    "engine/scalar/warm_ref": ("higher", 30_000.0),
    "engine/scalar/hint_ref": ("higher", 55_000.0),
    "engine/native/cold_ref": ("higher", 300_000.0),
    "engine/native/warm_ref": ("higher", 2_200_000.0),
    "engine/native/hint_ref": ("higher", 1_200_000.0),
    "emulator/kinstr_per_ref_s": ("higher", 1_200.0),
    "compile/grid_ref_s": ("lower", 0.22),
}

ENGINES = ("scalar",) + (("native",) if native_available() else ())

TRAJECTORY_FILE = Path(__file__).with_name("BENCH_trace.json")


def best_reference_seconds(run) -> float:
    """Reference seconds per call of ``run``: the fastest of :data:`RUNS`
    probe-scaled runs of at least :data:`RUN_SECONDS` each."""
    return min(reference_seconds(run, RUN_SECONDS)[0] for _ in range(RUNS))


def gate(series: str, value: float, record: bool, **provenance) -> None:
    """Hold a fresh sample of ``series`` to its floor and to the trend of
    the committed history, and append it under ``pytest --record-trend``.

    ``provenance`` (what one call runs: the benchmark and its budget, or
    the compile counts) joins the entry with the time and the host, so a
    trajectory merged across machines stays attributable.
    """
    better, floor = FLOORS[series]
    value = float(f"{value:.6g}")
    print(f"\n  {series}: {value:,}")
    assert value > floor if better == "higher" else value < floor, (
        f"{series}: {value:,} is past its floor {floor:,}"
    )
    entry = {
        "format": trend.ENTRY_FORMAT,
        "series": series,
        "value": value,
        "better": better,
        "timestamp": time.time(),
        "host": socket.gethostname(),
        **provenance,
    }
    evaluation = trend.gate_series(series, TRAJECTORY_FILE, sample=entry)
    if record:
        trend.append_entry(entry, TRAJECTORY_FILE)
    assert evaluation["regressed"] is not True, (
        f"perf trajectory regression on {series}: "
        f"latest {evaluation['latest']:,} vs median "
        f"{evaluation['median']:,} "
        f"(tolerance {evaluation['tolerance']:,.6g}); see "
        f"python -m repro.telemetry.trend"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_simulator_cycle_throughput(tmp_path, engine, record_trend):
    """Cycles per reference second of gzip's baseline replay, cold and
    warm, gated under ``engine/<name>/cold_ref`` and ``warm_ref``."""
    program = build_benchmark("gzip")
    stores = itertools.count()

    def warm():
        return simulate(
            program, BaselinePolicy(), max_instructions=MAX_INSTRUCTIONS, engine=engine
        )

    def cold():
        clear_trace_memo()
        return simulate(
            program,
            BaselinePolicy(),
            max_instructions=MAX_INSTRUCTIONS,
            engine=engine,
            trace_cache=str(tmp_path / str(next(stores))),
        )

    cycles = cold().cycles
    assert cycles > 0
    provenance = {"benchmark": "gzip", "max_instructions": MAX_INSTRUCTIONS}
    cold_rate = cycles / best_reference_seconds(cold)
    gate(f"engine/{engine}/cold_ref", cold_rate, record_trend, **provenance)
    warm_rate = cycles / best_reference_seconds(warm)  # the cold calls memoised it
    gate(f"engine/{engine}/warm_ref", warm_rate, record_trend, **provenance)


@pytest.mark.parametrize("engine", ENGINES)
def test_hint_path_throughput(engine, record_trend):
    """Cycles per reference second of warm replays of gcc's noop program
    under the software policy, the program densest in hints, whose hints
    the kernels expand at fetch from the plain program's trace and apply
    at dispatch; gated under ``engine/<name>/hint_ref``."""
    noop = compile_program(
        build_benchmark("gcc"), CompilerConfig(), mode="noop"
    ).instrumented_program

    def warm():
        return simulate(
            noop,
            SoftwareDirectedPolicy("noop"),
            max_instructions=MAX_INSTRUCTIONS,
            engine=engine,
        )

    stats = warm()  # memoises the trace and its table
    assert stats.hint_noops_stripped > MAX_INSTRUCTIONS // 40
    rate = stats.cycles / best_reference_seconds(warm)
    gate(
        f"engine/{engine}/hint_ref",
        rate,
        record_trend,
        benchmark="gcc",
        max_instructions=MAX_INSTRUCTIONS,
    )


def test_emulator_throughput(record_trend):
    """Thousands of gcc instructions emulated per reference second by a
    fresh emulator per call, gated under ``emulator/kinstr_per_ref_s``."""
    program = build_benchmark("gcc")
    executed = []

    def emulate():
        emulator = FunctionalEmulator(program)
        emulator.run_collect(EMULATOR_BUDGET)
        executed.append(emulator.instructions_executed)

    rate = EMULATOR_BUDGET / best_reference_seconds(emulate) / 1e3
    assert set(executed) == {EMULATOR_BUDGET}
    gate(
        "emulator/kinstr_per_ref_s",
        rate,
        record_trend,
        benchmark="gcc",
        max_instructions=EMULATOR_BUDGET,
    )


def test_compile_layer_time(record_trend):
    """Reference seconds for the figure grid's 33 compiles on 11
    analyses through a fresh runner per call, gated under
    ``compile/grid_ref_s``."""
    for name in SPECINT_BENCHMARKS:
        build_benchmark(name)  # the generator's memo, outside the timed runs
    counts = []

    def compile_grid() -> None:
        runner = SuiteRunner(RunConfig())
        for name in SPECINT_BENCHMARKS:
            for mode in ALL_MODES:
                runner.compilation(name, mode)
        counts.append((runner.compile_count, runner.analysis_count))

    seconds = best_reference_seconds(compile_grid)
    assert set(counts) == {(33, 11)}
    gate("compile/grid_ref_s", seconds, record_trend, compiles=33, analyses=11)


def test_every_gated_series_is_armed():
    """Every series in :data:`FLOORS`, for both kernels whatever this host
    builds, has enough committed samples, in its direction, for the trend
    gate to gate a fresh one.  A series the history does not know, a
    renamed one included, gates its first samples as ungateable, which
    passes."""
    series = trend.split_series(trend.load_history(TRAJECTORY_FILE))
    unarmed = [
        key
        for key, (better, _floor) in FLOORS.items()
        if key not in series
        or series[key]["better"] != better
        or len(series[key]["values"]) < trend.MIN_SAMPLES
    ]
    assert not unarmed, f"series the committed history does not arm: {unarmed}"
