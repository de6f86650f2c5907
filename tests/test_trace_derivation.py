"""Derived traces: a hinted program's trace spliced from its stripped program's.

Hints leave architectural state alone, so :mod:`repro.uarch.trace`
emulates each benchmark's uninstrumented program once: the tagged
programs share its trace outright, and a program with hint NOOPs gets
the hints spliced into it.  Live emulation of the program itself stays
the oracle: every derived column must equal it byte for byte.
"""

from __future__ import annotations

import copy
from array import array

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import CompilerConfig, compile_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import int_reg
from repro.uarch import TraceCache
from repro.uarch.emulator import CODE_BASE, ProgramLayout
from repro.uarch.trace import (
    TraceWindow,
    clear_trace_memo,
    get_trace_columns,
    reset_trace_events,
    static_table,
    trace_events,
    trace_fingerprint,
)
from repro.workloads import EXTENDED_BENCHMARKS, SPECINT_BENCHMARKS, build_benchmark
from repro.workloads.generator import SyntheticProgramGenerator
from tests.conftest import synthetic_traits

#: The instruction budget the figure tests simulate.
FIGURE_TEST_BUDGET = 20_000
MODES = ("noop", "extension", "improved")
R1 = int_reg(1)


def _column_bytes(columns) -> list[bytes]:
    return [bytes(column) for column in columns]


def _live(program, budget: int) -> list[bytes]:
    return _column_bytes(get_trace_columns(program, budget, live=True))


def _stripped(program: Program) -> Program:
    """A copy of ``program`` without its hint NOOPs."""
    stripped = copy.deepcopy(program)
    for procedure in stripped.procedures.values():
        for block in procedure.blocks:
            block.instructions = [i for i in block.instructions if not i.is_hint]
    return stripped


def _derived(program, budget: int, source=None) -> list[bytes]:
    """The front door's columns for hinted ``program`` once the memo holds
    its stripped program's trace (``source``, by default the stripped
    copy): one emulation, one derivation."""
    clear_trace_memo()
    reset_trace_events()
    get_trace_columns(source or _stripped(program), budget, live=False)
    columns = get_trace_columns(program, budget, live=False)
    assert trace_events["emulations"] == 1
    assert trace_events["derivations"] == 1
    return _column_bytes(columns)


def _compiled(base, mode: str):
    return compile_program(base, CompilerConfig(), mode=mode).instrumented_program


# ----------------------------------------------------------------------
# The shipped benchmarks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SPECINT_BENCHMARKS)
def test_front_door_columns_equal_live_emulation(name, tmp_path):
    """At the figure-test budget every mode's columns equal live
    emulation of the program itself, served from the memo, read back
    from disk, and derived from a source read back from disk."""
    base = build_benchmark(name)
    programs = {mode: _compiled(base, mode) for mode in MODES}
    live = {mode: _live(program, FIGURE_TEST_BUDGET) for mode, program in programs.items()}
    cache = TraceCache(tmp_path)

    clear_trace_memo()
    reset_trace_events()
    get_trace_columns(base, FIGURE_TEST_BUDGET, cache=cache, live=False)
    for mode, program in programs.items():
        columns = get_trace_columns(program, FIGURE_TEST_BUDGET, cache=cache, live=False)
        assert _column_bytes(columns) == live[mode], mode
    assert trace_events["emulations"] == 1
    assert trace_events["derivations"] == 1
    assert cache.stores == 2

    clear_trace_memo()
    reset_trace_events()
    for mode, program in programs.items():
        columns = get_trace_columns(program, FIGURE_TEST_BUDGET, cache=cache, live=False)
        assert _column_bytes(columns) == live[mode], mode
    assert trace_events["emulations"] == trace_events["derivations"] == 0
    assert trace_events["disk_hits"] == 2

    cache.path_for(trace_fingerprint(programs["noop"], FIGURE_TEST_BUDGET)).unlink()
    clear_trace_memo()
    reset_trace_events()
    columns = get_trace_columns(programs["noop"], FIGURE_TEST_BUDGET, cache=cache, live=False)
    assert _column_bytes(columns) == live["noop"]
    assert trace_events["emulations"] == 0
    assert trace_events["derivations"] == 1
    assert trace_events["disk_hits"] == 1


@pytest.mark.parametrize("name", EXTENDED_BENCHMARKS)
def test_extended_suite_columns_equal_live_emulation(name, tmp_path):
    """The extended suite's columns, served from the memo and read back
    from disk, equal live emulation of every mode's program, and each
    benchmark is emulated once: its ``noop`` trace is derived, phaseflip's
    across the empty block of its ``main`` too."""
    base = build_benchmark(name)
    programs = {mode: _compiled(base, mode) for mode in MODES}
    live = {mode: _live(program, FIGURE_TEST_BUDGET) for mode, program in programs.items()}
    cache = TraceCache(tmp_path)
    for source in ("memo", "disk"):
        clear_trace_memo()
        reset_trace_events()
        get_trace_columns(base, FIGURE_TEST_BUDGET, cache=cache, live=False)
        for mode, program in programs.items():
            columns = get_trace_columns(
                program, FIGURE_TEST_BUDGET, cache=cache, live=False
            )
            assert _column_bytes(columns) == live[mode], (source, mode)
        built = (trace_events["emulations"], trace_events["derivations"])
        assert built == ((1, 1) if source == "memo" else (0, 0)), source


def test_tagged_programs_share_the_baseline_trace_file():
    base = build_benchmark("gzip")
    baseline = trace_fingerprint(base, 1_000)
    assert trace_fingerprint(_compiled(base, "extension"), 1_000) == baseline
    assert trace_fingerprint(_compiled(base, "improved"), 1_000) == baseline
    assert trace_fingerprint(_compiled(base, "noop"), 1_000) != baseline


def test_in_place_tag_edit_changes_the_table_but_not_the_trace():
    program = _compiled(build_benchmark("gzip"), "extension")
    clear_trace_memo()
    reset_trace_events()
    columns = get_trace_columns(program, 1_000, live=False)
    table = static_table(program)
    tagged = next(
        instr
        for procedure in program.procedures.values()
        for instr in procedure.instructions()
        if instr.iq_tag is not None
    )
    row = table.row(ProgramLayout.for_program(program).instruction_pc[tagged.uid])
    before = tagged.iq_tag
    tagged.iq_tag = before + 1

    assert get_trace_columns(program, 1_000, live=False) is columns
    assert trace_events["emulations"] == 1
    assert trace_events["memo_hits"] == 1
    edited = static_table(program)
    assert edited is not table
    assert (table.iq_tag[row], edited.iq_tag[row]) == (before, before + 1)


def test_source_trace_failing_validation_is_quarantined_then_emulated(tmp_path):
    """The stored source must hold only pcs of the stripped layout; one
    that names a pc only the hinted layout has is corrupt: it is set
    aside, and the hinted program is emulated instead."""
    base = build_benchmark("gzip")
    noop = _compiled(base, "noop")
    budget = 2_000
    columns = get_trace_columns(base, budget, live=True)
    past_stripped = CODE_BASE + ProgramLayout.for_program(noop, hints=False).code_size
    assert past_stripped in static_table(noop).pcs()
    pcs = array("q", columns.pc)
    pcs[50] = past_stripped
    cache = TraceCache(tmp_path)
    source = cache.path_for(trace_fingerprint(base, budget))
    cache.store(trace_fingerprint(base, budget), TraceWindow(pcs, *columns[1:]))

    clear_trace_memo()
    reset_trace_events()
    derived = get_trace_columns(noop, budget, cache=cache, live=False)
    assert cache.quarantined == 1
    assert not source.exists()
    assert trace_events["derivations"] == 0
    assert trace_events["emulations"] == 1
    assert _column_bytes(derived) == _live(noop, budget)


# ----------------------------------------------------------------------
# Hand-built edge cases
# ----------------------------------------------------------------------
def _hint() -> Instruction:
    return Instruction.hint(8)


def _add() -> Instruction:
    return Instruction.alu(Opcode.ADD, R1, [R1], imm=1)


def _program(**procedures) -> Program:
    """A program whose procedures map to ``[(label, instructions), ...]``;
    ``main`` is the entry."""
    program = Program(name="edge")
    for name, blocks in procedures.items():
        procedure = program.new_procedure(name)
        for label, instructions in blocks:
            procedure.add_block(label).extend(instructions)
    program.validate()
    return program


EDGE_CASES = {
    "falls-off-main-after-trailing-hints": _program(
        main=[("entry", [Instruction.load_imm(R1, 0), _add(), _hint(), _hint()])],
    ),
    "returns-into-trailing-hints-at-a-procedure-end": _program(
        main=[("entry", [_add(), Instruction.call("f"), _hint(), _hint()])],
        f=[("body", [Instruction.call("g"), _add(), Instruction.ret()])],
        g=[("body", [_hint(), _add(), Instruction.ret()])],
    ),
    "returns-mid-block-into-hints": _program(
        main=[("entry", [Instruction.call("f"), _hint(), _hint(), _add(), Instruction.halt()])],
        f=[("body", [_add(), Instruction.ret()])],
    ),
    "returns-from-main": _program(
        main=[
            ("entry", [_hint(), _add(), Instruction.ret()]),
            ("unreached", [_hint(), _add(), Instruction.halt()]),
        ],
    ),
    "empty-blocks-entered-by-fall-through-branch-call-and-return": _program(
        main=[
            ("entry", [Instruction.load_imm(R1, 2), _hint()]),
            ("empty", []),
            (
                "loop",
                [_hint(), Instruction.alu(Opcode.SUB, R1, [R1], imm=1), Instruction.call("f")],
            ),
            ("returned-past", []),
            ("latch", [Instruction.branch_nez(R1, "empty")]),
            ("done", [_hint(), Instruction.halt()]),
        ],
        f=[("first-empty", []), ("body", [_hint(), _add(), Instruction.ret()]), ("tail", [])],
    ),
    "loop-entered-by-fall-through-and-by-a-taken-branch": _program(
        main=[
            ("entry", [Instruction.load_imm(R1, 3), _hint()]),
            (
                "loop",
                [
                    _hint(),
                    Instruction.alu(Opcode.SUB, R1, [R1], imm=1),
                    Instruction.branch_nez(R1, "loop"),
                ],
            ),
            ("done", [_hint(), Instruction.halt()]),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_derives_the_emulated_trace(case):
    program = EDGE_CASES[case]
    assert _derived(program, 100) == _live(program, 100)


def test_a_block_of_only_hints_is_emulated_not_derived():
    """Stripping would leave that block empty, so a branch to it and a
    branch to the block after it would record the same target in the
    stripped trace, and only the first passes its hints: the hinted
    program is emulated instead."""
    program = _program(
        main=[
            ("entry", [Instruction.load_imm(R1, 0)]),
            ("only-hints", [_hint(), _hint()]),
            ("done", [_add(), Instruction.halt()]),
        ],
    )
    clear_trace_memo()
    reset_trace_events()
    get_trace_columns(_stripped(program), 100, live=False)
    columns = get_trace_columns(program, 100, live=False)
    assert trace_events["emulations"] == 2
    assert trace_events["derivations"] == 0
    assert _column_bytes(columns) == _live(program, 100)


@pytest.mark.parametrize("budget", range(1, 9))
def test_budget_ending_inside_a_run_of_hints(budget):
    """Hints count against the budget, so a budget can end inside a run
    of them (the entry block's leading run, or one after an entry); the
    last kept entry still points at the next one."""
    program = _program(
        main=[
            (
                "entry",
                [_hint(), _hint(), Instruction.load_imm(R1, 0)]
                + [_hint(), _hint(), _hint()]
                + [_add(), Instruction.halt()],
            )
        ],
    )
    assert _derived(program, budget) == _live(program, budget)


# ----------------------------------------------------------------------
# Property: random programs, random hint placement, random budgets
# ----------------------------------------------------------------------
_SITES = (
    "program-entry",
    "block-start",
    "mid-block",
    "block-end",
    "before-call",
    "after-call",
    "callee-entry",
)


def _end_main(program: Program, ending: str) -> None:
    """End ``main`` with HALT, a RET from the entry procedure, or by
    falling off its last block."""
    last = program.procedures["main"].blocks[-1]
    if ending == "ret":
        last.instructions[-1] = Instruction.ret()
    elif ending == "fall":
        last.instructions[-1] = _add()


def _insert_hints(program: Program, sites) -> int:
    """Insert hint NOOPs at ``sites``, ``(kind, choice, count)`` triples;
    return how many were inserted."""
    inserted = 0
    for kind, choice, count in sites:
        blocks = [
            block
            for procedure in program.procedures.values()
            for block in procedure.blocks
        ]
        calls = [
            (block, index)
            for block in blocks
            for index, instr in enumerate(block.instructions)
            if instr.is_call
        ]
        if kind == "program-entry":
            block, index = program.procedures[program.entry].blocks[0], 0
        elif kind in ("before-call", "after-call", "callee-entry"):
            if not calls:
                continue
            block, index = calls[choice % len(calls)]
            if kind == "after-call":
                index += 1
            elif kind == "callee-entry":
                callee = block.instructions[index].call_target
                block, index = program.procedures[callee].blocks[0], 0
        else:
            block = blocks[choice % len(blocks)]
            size = len(block.instructions)
            index = {"block-start": 0, "block-end": size}.get(kind, choice % (size + 1))
        block.instructions[index:index] = [
            Instruction.hint(1 + choice % 64) for _ in range(count)
        ]
        inserted += count
    return inserted


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shape=st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
    ending=st.sampled_from(("halt", "ret", "fall")),
    sites=st.lists(
        st.tuples(
            st.sampled_from(_SITES),
            st.integers(min_value=0, max_value=2**16),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=12,
    ),
    budget=st.integers(min_value=1, max_value=3_000),
)
@settings(max_examples=60, deadline=None)
def test_derived_columns_equal_live_emulation(seed, shape, ending, sites, budget):
    base = SyntheticProgramGenerator(synthetic_traits(seed, *shape)).build()
    _end_main(base, ending)
    hinted = copy.deepcopy(base)
    assume(_insert_hints(hinted, sites))
    assert _derived(hinted, budget, source=base) == _live(hinted, budget)
