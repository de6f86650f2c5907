"""Both kernels expand hint NOOPs at fetch as the live hinted program runs.

A program with hint NOOPs replays its stripped program's trace with a
:class:`~repro.uarch.trace.HintMap`, whose hints the kernels fetch
before each entry, after the last one and up to the budget.  Replaying
that stream must give the statistics of replaying the program's own live
emulation, byte for byte, under both kernels and across warm-up; and
both must refuse a map that names a row outside the table, or a run
holding anything but hints.
``tests/test_native_sanitizer.py`` reruns the native tests here under
AddressSanitizer and UndefinedBehaviorSanitizer.
"""

from __future__ import annotations

import json
from array import array

import pytest

from repro.core import CompilerConfig, compile_program
from repro.harness.cache import stats_to_dict
from repro.isa.instruction import Instruction
from repro.techniques import SoftwareDirectedPolicy
from repro.uarch import get_engine
from repro.uarch.engine import native as native_module
from repro.uarch.trace import (
    F_HINT,
    HintMap,
    HintRuns,
    TraceWindow,
    TraceWindowStream,
    empty_columns,
    get_trace_columns,
    get_trace_stream,
)
from repro.workloads import ALL_BENCHMARKS, build_benchmark
from tests.test_trace_derivation import EDGE_CASES, HINT_RUNS, R1, _program

needs_native = pytest.mark.skipif(
    not native_module.native_available(),
    reason=f"native kernel unavailable: {native_module.native_unavailable_reason()}",
)
KERNELS = ("scalar", pytest.param("native", marks=needs_native))

BUDGETS = (2_500, 20_000)
WARMUPS = (0, 400)


def _noop(name: str):
    return compile_program(
        build_benchmark(name), CompilerConfig(), mode="noop"
    ).instrumented_program


def _replay(kernel: str, stream, warmup: int = 0) -> bytes:
    """The statistics of replaying ``stream`` under the stock software
    policy."""
    stats = get_engine(kernel).run(
        stream, SoftwareDirectedPolicy(), warmup_instructions=warmup
    )
    return json.dumps(stats_to_dict(stats), sort_keys=True).encode()


def _live(kernel: str, program, budget: int, warmup: int) -> bytes:
    """The replay of ``program``'s own emulation, hints included."""
    return _replay(kernel, get_trace_stream(program, budget, live=True), warmup)


def _mapped(kernel: str, program, budget: int, warmup: int) -> bytes:
    stream = get_trace_stream(program, budget, live=False)
    assert stream.hints is not None
    return _replay(kernel, stream, warmup)


# ----------------------------------------------------------------------
# Every benchmark's noop program
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_native_expansion_replays_like_live_emulation(name):
    noop = _noop(name)
    for budget in BUDGETS:
        for warmup in WARMUPS:
            live = _live("native", noop, budget, warmup)
            assert _mapped("native", noop, budget, warmup) == live, (budget, warmup)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_scalar_expansion_replays_like_live_emulation(name):
    """The scalar kernel's expansion against the live replay (under the
    native kernel where it builds: the kernels replay live streams
    alike)."""
    native = native_module.native_available()
    noop = _noop(name)
    for budget in BUDGETS:
        for warmup in WARMUPS:
            live = _live("native" if native else "scalar", noop, budget, warmup)
            assert _mapped("scalar", noop, budget, warmup) == live, (budget, warmup)


# ----------------------------------------------------------------------
# Hand-built edge cases
# ----------------------------------------------------------------------
#: The derivation tests' edge cases (empty blocks, trailing hints after
#: a return off a procedure's end, HALT, a return from ``main``, taken
#: transfers past a procedure's end), the hint runs a budget can cut,
#: and a block of only hints, whose program has no map.
KERNEL_CASES = {
    **EDGE_CASES,
    "budget-cut-inside-hint-runs": HINT_RUNS,
    "only-hints-block-replays-its-own-emulation": _program(
        main=[
            ("entry", [Instruction.load_imm(R1, 0)]),
            ("only-hints", [Instruction.hint(8), Instruction.hint(8)]),
            ("done", [Instruction.halt()]),
        ],
    ),
}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_edge_cases_replay_like_live_emulation(kernel, case):
    """Every budget from 1 to 39, with and without a warm-up."""
    program = KERNEL_CASES[case]
    for budget in range(1, 40):
        for warmup in (0, 3):
            live = _live(kernel, program, budget, warmup)
            stream = get_trace_stream(program, budget, live=False)
            assert _replay(kernel, stream, warmup) == live, (budget, warmup)


# ----------------------------------------------------------------------
# Maps the kernels refuse
# ----------------------------------------------------------------------
def _bad_maps() -> dict[str, HintMap]:
    """Maps of gcc's noop program that each break one rule."""
    noop = _noop("gcc")
    stream = get_trace_stream(noop, 2_500, live=False)
    good = stream.hints
    runs = good.runs
    flags = stream.table.flags
    rows_total = len(flags)
    # An entry whose run has a non-hint row just below it.
    entry = next(
        index
        for index, (row, count) in enumerate(zip(runs.rows, runs.sequential))
        if count and row > count and not flags[row - count - 1] & F_HINT
    )

    def edited(column: str, value: int) -> HintMap:
        columns = {
            name: array("q", getattr(runs, name)) for name in ("rows", "sequential", "taken")
        }
        columns[column][entry] = value
        return good._replace(
            runs=HintRuns(columns["rows"], columns["sequential"], columns["taken"])
        )

    row, count = runs.rows[entry], runs.sequential[entry]
    return {
        "own-row-past-the-table": edited("rows", rows_total),
        "own-row-below-the-table": edited("rows", -1),
        "run-below-row-0": edited("sequential", row + 1),
        "run-over-a-non-hint-row": edited("sequential", count + 1),
        "taken-run-over-a-non-hint-row": edited("taken", count + 1),
        "negative-run": edited("taken", -1),
        "run-reaching-past-int64": edited("sequential", -(1 << 63)),
        "tail-past-the-table": good._replace(tail_row=rows_total, tail_count=1),
        "tail-over-a-non-hint-row": good._replace(tail_row=runs.rows[0], tail_count=1),
        "negative-tail": good._replace(tail_row=0, tail_count=-1),
        "negative-budget": good._replace(budget=-1),
    }


BAD_MAPS = _bad_maps()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(BAD_MAPS))
def test_a_bad_map_is_refused(kernel, case):
    noop = _noop("gcc")
    stream = get_trace_stream(noop, 2_500, live=False)
    bad = TraceWindowStream(stream.table, empty_columns(), BAD_MAPS[case])
    with pytest.raises(ValueError, match="hint map"):
        _replay(kernel, bad)
    # The refusal leaves nothing behind that changes the next replay.
    assert _replay(kernel, stream) == _mapped(kernel, noop, 2_500, 0)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("where", ("past-the-stripped-layout", "misaligned"))
def test_a_trace_pc_without_a_map_entry_raises(kernel, where):
    """A stripped-trace pc beyond the map, though inside the own table,
    names no instruction of the trace's layout."""
    noop = _noop("gcc")
    good = get_trace_stream(noop, 2_500, live=False)
    columns = get_trace_columns(noop, 2_500, live=False)
    pcs = array("q", columns.pc)
    pcs[1_000] = {
        "past-the-stripped-layout": good.hints.runs.pcs().stop,
        "misaligned": pcs[1_000] + 2,
    }[where]
    assert pcs[1_000] < good.table.pcs().stop
    stream = TraceWindowStream(good.table, TraceWindow(pcs, *columns[1:]), good.hints)
    with pytest.raises(ValueError, match="names no static instruction"):
        _replay(kernel, stream)
