"""One trace per benchmark: a hinted program replays its stripped program's.

Hints leave architectural state alone, so :mod:`repro.uarch.trace`
emulates each benchmark's uninstrumented program once: the tagged
programs share its trace outright, and a program with hint NOOPs replays
it with a :class:`~repro.uarch.trace.HintMap`, whose hints the replay
kernels expand at fetch.  No hinted trace is built in ``src/``.  The
splice that used to derive one, :func:`_splice_hints`, lives on here as
the oracle, and live emulation of the program itself stays the
reference: :func:`_expand` rebuilds from a stripped trace and its map
the columns a kernel fetches, and they must equal both byte for byte.
``tests/test_hint_expansion.py`` holds the kernels' replays to live
ones.
"""

from __future__ import annotations

import copy
from array import array
from typing import NamedTuple, Optional

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
    F_RET,
    HintMap,
    TraceWindow,
    clear_trace_memo,
    empty_columns,
    get_trace_columns,
    get_trace_stream,
    reset_trace_events,
    static_table,
    trace_events,
    trace_fingerprint,
)
from repro.workloads import (
    ALL_BENCHMARKS,
    EXTENDED_BENCHMARKS,
    SPECINT_BENCHMARKS,
    build_benchmark,
)
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


def _compiled(base, mode: str):
    return compile_program(base, CompilerConfig(), mode=mode).instrumented_program


# ----------------------------------------------------------------------
# The oracle: the splice that derived hinted traces
# ----------------------------------------------------------------------
class _SplicePlan(NamedTuple):
    """Where a hinted program's hint NOOPs sit between its other instructions.

    Keys are pcs in the *stripped* layout (the program without its hints),
    the pcs a source trace records.  A run of hints is a count of
    consecutive hinted-layout pcs.

    Attributes:
        source_pcs: every pc of the stripped layout.
        hinted_pc: stripped pc -> pc in the hinted layout.
        run_before: the hints between an instruction and the previous
            non-hint instruction of its procedure (or the procedure's
            start), which control passes through when it arrives
            sequentially.
        block_lead: the hints between the start of a block and its first
            non-hint instruction, which a taken branch, jump or call to
            the block passes through.
        run_after: the hints after the last non-hint instruction of a
            procedure, which control passes through when it falls off
            the procedure's end.
        calls / returns / halts: the stripped pcs of CALL, RET and HALT.
    """

    source_pcs: range
    hinted_pc: dict
    run_before: dict
    block_lead: dict
    run_after: dict
    calls: set
    returns: set
    halts: set


def _splice_plan(program) -> Optional[_SplicePlan]:
    """The :class:`_SplicePlan` of ``program``, from its hinted and
    stripped :class:`~repro.uarch.emulator.ProgramLayout`.

    None when a procedure has no block or a block holds hints but no
    other instruction.  Stripping would empty that block, and a branch to
    it and a branch to the block after it would record the same target
    in the stripped trace, though only the first passes its hints.  A
    block that is empty in both layouts passes no hints, and the emulator
    records the next instruction executed past it, so it is spliced
    across.
    """
    hinted = ProgramLayout.for_program(program).instruction_pc
    stripped_layout = ProgramLayout.for_program(program, hints=False)
    stripped = stripped_layout.instruction_pc
    hinted_pc: dict[int, int] = {}
    run_before: dict[int, int] = {}
    block_lead: dict[int, int] = {}
    run_after: dict[int, int] = {}
    kinds: dict[Opcode, set[int]] = {
        Opcode.CALL: set(),
        Opcode.RET: set(),
        Opcode.HALT: set(),
    }
    for procedure in program.procedures.values():
        if not procedure.blocks:
            return None
        run = 0  # hints since the procedure's last non-hint instruction
        for block in procedure.blocks:
            run_at_start = run
            first = True
            for instr in block.instructions:
                if instr.opcode is Opcode.HINT:
                    run += 1
                    continue
                pc = stripped[instr.uid]
                hinted_pc[pc] = hinted[instr.uid]
                if run:
                    run_before[pc] = run
                    if first and run > run_at_start:
                        block_lead[pc] = run - run_at_start
                first = False
                run = 0
                kind = kinds.get(instr.opcode)
                if kind is not None:
                    kind.add(pc)
            if first and run > run_at_start:
                return None
        if run:
            run_after[pc] = run
    return _SplicePlan(
        range(CODE_BASE, CODE_BASE + stripped_layout.code_size, 4),
        hinted_pc,
        run_before,
        block_lead,
        run_after,
        kinds[Opcode.CALL],
        kinds[Opcode.RET],
        kinds[Opcode.HALT],
    )


def _returning_call(pcs, index: int, plan: _SplicePlan) -> int:
    """The pc of the CALL that the RET at entry ``index`` returns to."""
    depth = 0
    for position in range(index - 1, -1, -1):
        pc = pcs[position]
        if pc in plan.returns:
            depth += 1
        elif pc in plan.calls:
            if not depth:
                return pc
            depth -= 1
    raise ValueError("source trace returns from the entry procedure mid-trace")


def _splice_hints(
    plan: _SplicePlan, source: TraceWindow, max_instructions: int
) -> TraceWindow:
    """The hinted program's trace, from its stripped program's ``source``.

    Each source entry moves to its hinted pc.  The entry block's leading
    hints come first, and after each entry come the hints that control
    passes through before the next one:

    * the whole run before the next entry when control arrives
      sequentially (not taken, or a return, which resumes after its call);
    * only the target block's leading hints after a taken branch, jump or
      call;
    * the procedure's trailing hints when control falls off its end (a
      source next pc of 0 after an entry not taken), after the last
      entry or, for a return, after the call it returns to;
    * nothing after a HALT or a return from the entry procedure, or after
      a taken branch, jump or call whose target lies past its
      procedure's end.

    ``next_pc`` chains through the inserted hints, and the trace is cut at
    ``max_instructions`` entries, because hints count against the budget.
    """
    pcs, next_pcs, mems, takens = source
    length = len(takens)
    if not length:
        return empty_columns()
    hinted_pc = plan.hinted_pc
    run_before = plan.run_before
    block_lead = plan.block_lead
    returns = plan.returns
    last = length - 1
    last_pc = pcs[last]
    last_next = next_pcs[last]
    # The emulator records pc + 4 after a HALT or a return from the entry
    # procedure; a return from a call resumes after the CALL instead.
    halted = last_pc in plan.halts or (last_pc in returns and last_next == last_pc + 4)
    sites = [index for index, target in enumerate(next_pcs) if target in run_before]
    if halted and sites and sites[-1] == last:
        sites.pop()
    runs = []  # (entry index, first hint pc, hint count) per inserted run
    for index in sites:
        target = next_pcs[index]
        if takens[index] and pcs[index] not in returns:
            count = block_lead.get(target)
        else:
            count = run_before[target]
        if count:
            runs.append((index, hinted_pc[target] - 4 * count, count))
    if halted:
        end = hinted_pc[last_pc] + 4
    elif last_next:
        end = hinted_pc[last_next]  # the budget cut the source trace
    else:
        anchor = None  # a taken transfer past its procedure's end
        if last_pc in returns:
            anchor = _returning_call(pcs, last, plan)
        elif not takens[last]:
            anchor = last_pc
        count = plan.run_after.get(anchor)
        if count:
            runs.append((last, hinted_pc[anchor] + 4, count))
        end = 0

    mapped = array("q", list(map(hinted_pc.__getitem__, pcs)))
    out_pc, out_next, out_mem, out_taken = columns = empty_columns()

    def add_hints(first: int, count: int) -> None:
        out_pc.extend(range(first, first + 4 * count, 4))
        out_mem.frombytes(bytes(8 * count))
        out_taken.extend(bytes(count))

    lead = run_before.get(pcs[0])
    if lead:
        add_hints(mapped[0] - 4 * lead, lead)
    start = 0
    for index, first, count in runs:
        out_pc.extend(mapped[start : index + 1])
        out_mem.extend(mems[start : index + 1])
        out_taken.extend(takens[start : index + 1])
        add_hints(first, count)
        start = index + 1
        if len(out_taken) > max_instructions:
            break
    else:
        out_pc.extend(mapped[start:])
        out_mem.extend(mems[start:])
        out_taken.extend(takens[start:])
        out_pc.append(end)
    # Each entry's successor is the next entry's pc (or ``end``).
    keep = min(len(out_pc) - 1, max_instructions)
    out_next.extend(out_pc[1 : keep + 1])
    del out_pc[keep:], out_mem[keep:], out_taken[keep:]
    return columns


# ----------------------------------------------------------------------
# The map, rebuilt into columns
# ----------------------------------------------------------------------
def _expand(program, columns: TraceWindow, hints: HintMap) -> list[bytes]:
    """The columns a kernel fetches from ``program``'s stripped trace
    ``columns`` and their map, by :class:`HintMap`'s fetch rule.

    Each entry's pc moves to its own row's, its run of hints comes
    before it, the tail run after the last entry, and the stream ends at
    the budget.  An entry's next pc is the pc fetched after it; the last
    one's is what the program would run next: the pc after a HALT or a
    return from ``main``, 0 when control falls off a procedure's end,
    else the first hint or entry the next stripped pc leads to.
    """
    runs = hints.runs
    flags = static_table(program).flags
    pcs, next_pcs, mems, takens = columns
    out_pc, out_mem, out_taken = array("q"), array("q"), bytearray()

    def fetch(row: int, mem: int = 0, taken: int = 0) -> None:
        out_pc.append(CODE_BASE + 4 * row)
        out_mem.append(mem)
        out_taken.append(taken)

    def first_before(stripped_pc: int, after_taken: bool) -> int:
        """The first row fetched on the way to ``stripped_pc``."""
        row = (stripped_pc - CODE_BASE) >> 2
        count = (runs.taken if after_taken else runs.sequential)[row]
        return runs.rows[row] - count

    after_taken = False
    for pc, mem, taken in zip(pcs, mems, takens):
        own = runs.rows[(pc - CODE_BASE) >> 2]
        for row in range(first_before(pc, after_taken), own):
            fetch(row)
        fetch(own, mem, taken)
        after_taken = bool(taken) and not flags[own] & F_RET
    for row in range(hints.tail_row, hints.tail_row + hints.tail_count):
        fetch(row)

    keep = min(len(out_taken), hints.budget)
    if keep < len(out_taken):
        end = out_pc[keep]
    elif hints.tail_count or not pcs or not next_pcs[-1]:
        end = 0
    else:
        last_own = out_pc[-1]
        opcode = ProgramLayout.for_program(program).instruction_at[last_own].opcode
        if next_pcs[-1] == pcs[-1] + 4 and opcode in (Opcode.HALT, Opcode.RET):
            end = last_own + 4
        else:
            end = CODE_BASE + 4 * first_before(next_pcs[-1], after_taken)
    out_next = out_pc[1 : keep + 1]
    if len(out_next) < keep:
        out_next.append(end)
    del out_pc[keep:], out_mem[keep:], out_taken[keep:]
    return _column_bytes((out_pc, out_next, out_mem, out_taken))


def _fetched(program, budget: int, cache=None) -> list[bytes]:
    """The columns a kernel fetches for ``program`` from the front door."""
    stream = get_trace_stream(program, budget, cache=cache, live=False)
    columns = stream.next_window()
    if stream.hints is None:
        return _column_bytes(columns)
    return _expand(program, columns, stream.hints)


def _oracle(program, budget: int, source=None) -> list[bytes]:
    """The oracle's splice of ``program``'s stripped trace (``source``'s
    emulation, by default the stripped copy's)."""
    stripped = get_trace_columns(source or _stripped(program), budget, live=True)
    return _column_bytes(_splice_hints(_splice_plan(program), stripped, budget))


def _mapped(program, budget: int, source=None) -> list[bytes]:
    """The map's rebuilt columns once the memo holds the stripped
    program's trace (``source``, by default the stripped copy): one
    emulation, replayed with a map."""
    clear_trace_memo()
    reset_trace_events()
    get_trace_columns(source or _stripped(program), budget, live=False)
    columns = _fetched(program, budget)
    assert trace_events["emulations"] == 1
    assert trace_events["memo_hits"] == 1
    return columns


# ----------------------------------------------------------------------
# The shipped benchmarks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SPECINT_BENCHMARKS)
def test_front_door_columns_equal_live_emulation(name, tmp_path):
    """At the figure-test budget every mode's fetched columns equal live
    emulation of the program itself: served from the memo, read back
    from disk, and for the hinted program alone from the one stored
    trace."""
    base = build_benchmark(name)
    programs = {mode: _compiled(base, mode) for mode in MODES}
    live = {mode: _live(program, FIGURE_TEST_BUDGET) for mode, program in programs.items()}
    cache = TraceCache(tmp_path)

    clear_trace_memo()
    reset_trace_events()
    get_trace_columns(base, FIGURE_TEST_BUDGET, cache=cache, live=False)
    for mode, program in programs.items():
        assert _fetched(program, FIGURE_TEST_BUDGET, cache) == live[mode], mode
    assert trace_events["emulations"] == 1
    assert cache.stores == len(cache) == 1

    clear_trace_memo()
    reset_trace_events()
    for mode, program in programs.items():
        assert _fetched(program, FIGURE_TEST_BUDGET, cache) == live[mode], mode
    assert trace_events["emulations"] == 0
    assert trace_events["disk_hits"] == 1

    clear_trace_memo()
    reset_trace_events()
    assert _fetched(programs["noop"], FIGURE_TEST_BUDGET, cache) == live["noop"]
    assert (trace_events["emulations"], trace_events["disk_hits"]) == (0, 1)
    assert cache.stores == 1


@pytest.mark.parametrize("name", EXTENDED_BENCHMARKS)
def test_extended_suite_columns_equal_live_emulation(name, tmp_path):
    """The extended suite's fetched columns, served from the memo and
    read back from disk, equal live emulation of every mode's program,
    and each benchmark is emulated once, phaseflip's noop program
    mapped across the empty block of its ``main`` too."""
    base = build_benchmark(name)
    programs = {mode: _compiled(base, mode) for mode in MODES}
    live = {mode: _live(program, FIGURE_TEST_BUDGET) for mode, program in programs.items()}
    cache = TraceCache(tmp_path)
    for source in ("memo", "disk"):
        clear_trace_memo()
        reset_trace_events()
        get_trace_columns(base, FIGURE_TEST_BUDGET, cache=cache, live=False)
        for mode, program in programs.items():
            assert _fetched(program, FIGURE_TEST_BUDGET, cache) == live[mode], (source, mode)
        assert trace_events["emulations"] == (1 if source == "memo" else 0), source


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_map_rebuilds_the_oracle_splice(name):
    """Every extended-suite benchmark's noop program, at budgets that cut
    its first run of hints, land mid-trace and reach the figure grid's:
    the map's columns equal the oracle's splice of the same trace."""
    noop = _compiled(build_benchmark(name), "noop")
    plan = _splice_plan(noop)
    for budget in (1, 3, 777, 2_500, FIGURE_TEST_BUDGET):
        clear_trace_memo()
        stream = get_trace_stream(noop, budget, live=False)
        source = stream.next_window()
        assert _expand(noop, source, stream.hints) == _column_bytes(
            _splice_hints(plan, source, budget)
        ), budget


def test_hinted_programs_replay_the_plain_trace_itself():
    """The noop program's stream holds the plain program's memoised
    columns, not a copy: nothing builds hinted columns."""
    base = build_benchmark("gcc")
    noop = _compiled(base, "noop")
    clear_trace_memo()
    plain = get_trace_columns(base, 2_000, live=False)
    stream = get_trace_stream(noop, 2_000, live=False)
    assert stream.next_window().pc is plain.pc
    assert get_trace_columns(noop, 2_000, live=False) is plain
    assert stream.hints.runs is get_trace_stream(noop, 1_000, live=False).hints.runs


def test_tagged_programs_share_the_baseline_trace_file():
    base = build_benchmark("gzip")
    baseline = trace_fingerprint(base, 1_000)
    for mode in MODES:
        assert trace_fingerprint(_compiled(base, mode), 1_000) == baseline, mode


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


# ----------------------------------------------------------------------
# The trace cache
# ----------------------------------------------------------------------
def test_a_stored_stripped_trace_serves_the_hinted_program(tmp_path):
    """A hinted program whose stripped trace is on disk replays with one
    disk hit, no emulation and no store."""
    base = build_benchmark("gcc")
    noop = _compiled(base, "noop")
    cache = TraceCache(tmp_path)
    clear_trace_memo()
    get_trace_columns(base, 2_000, cache=cache, live=False)
    assert cache.stores == 1

    live = _live(noop, 2_000)
    clear_trace_memo()
    reset_trace_events()
    assert _fetched(noop, 2_000, cache) == live
    assert (trace_events["disk_hits"], trace_events["emulations"]) == (1, 0)
    assert trace_events["disk_stores"] == 0
    assert (cache.hits, cache.stores, len(cache)) == (1, 1, 1)


def _corrupt_source(noop, budget: int, tmp_path) -> tuple[TraceCache, str]:
    """A cache holding the stripped trace of ``noop`` at ``budget`` with
    one pc that only the hinted layout has."""
    base_columns = get_trace_columns(_stripped(noop), budget, live=True)
    past_stripped = CODE_BASE + ProgramLayout.for_program(noop, hints=False).code_size
    assert past_stripped in static_table(noop).pcs()
    pcs = array("q", base_columns.pc)
    pcs[50] = past_stripped
    cache = TraceCache(tmp_path)
    fingerprint = trace_fingerprint(noop, budget)
    cache.store(fingerprint, TraceWindow(pcs, *base_columns[1:]))
    return cache, fingerprint


def test_source_trace_failing_validation_is_quarantined_then_emulated(tmp_path):
    """The stored trace must hold only pcs of the stripped layout; one
    that names a pc only the hinted layout has is corrupt: it is set
    aside, and the stripped program is emulated and stored again."""
    noop = _compiled(build_benchmark("gzip"), "noop")
    budget = 2_000
    cache, fingerprint = _corrupt_source(noop, budget, tmp_path)
    live = _live(noop, budget)

    clear_trace_memo()
    reset_trace_events()
    assert _fetched(noop, budget, cache) == live
    assert cache.quarantined == 1
    assert trace_events["emulations"] == 1
    assert cache.stores == 2
    assert cache.path_for(fingerprint).exists()


def test_load_checks_pcs_against_the_layout_it_serves(tmp_path):
    """``TraceCache.load`` validates a hinted program's trace against its
    stripped layout, not its own table, and accepts the intact trace."""
    noop = _compiled(build_benchmark("gzip"), "noop")
    cache, fingerprint = _corrupt_source(noop, 2_000, tmp_path)
    assert cache.load(fingerprint, noop) is None
    assert cache.quarantined == 1

    clear_trace_memo()
    get_trace_columns(noop, 2_000, cache=cache, live=False)
    loaded = cache.load(fingerprint, noop)
    assert _column_bytes(loaded) == _column_bytes(
        get_trace_columns(_stripped(noop), 2_000, live=True)
    )


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
    # Control ends the trace by a taken transfer past its procedure's end,
    # so the hints trailing the transfer are never passed.
    "taken-branch-past-a-procedure-end": _program(
        main=[
            ("entry", [Instruction.load_imm(R1, 0), Instruction.branch_eqz(R1, "end"), _hint()]),
            ("end", []),
        ],
    ),
    "jump-past-a-procedure-end": _program(
        main=[("entry", [_hint(), _add(), Instruction.jump("end"), _hint()]), ("end", [])],
    ),
    "call-to-an-empty-procedure": _program(
        main=[("entry", [_add(), Instruction.call("f"), _hint(), _hint()])],
        f=[("empty", [])],
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_derives_the_emulated_trace(case):
    program = EDGE_CASES[case]
    assert _mapped(program, 100) == _live(program, 100)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_maps_like_the_oracle_at_every_budget(case):
    """Every budget up to 39, cuts inside every run of hints included:
    the map's columns, the oracle's splice and live emulation agree."""
    program = EDGE_CASES[case]
    for budget in range(40):
        live = _live(program, budget)
        assert _mapped(program, budget) == live, budget
        assert _oracle(program, budget) == live, budget


def test_a_block_of_only_hints_is_emulated_not_derived():
    """Stripping would leave that block empty, so a branch to it and a
    branch to the block after it would record the same target in the
    stripped trace, and only the first passes its hints: the hinted
    program has no map and replays its own emulation."""
    program = _program(
        main=[
            ("entry", [Instruction.load_imm(R1, 0)]),
            ("only-hints", [_hint(), _hint()]),
            ("done", [_add(), Instruction.halt()]),
        ],
    )
    assert _splice_plan(program) is None
    live = _live(program, 100)
    clear_trace_memo()
    reset_trace_events()
    get_trace_columns(_stripped(program), 100, live=False)
    stream = get_trace_stream(program, 100, live=False)
    assert stream.hints is None
    assert _column_bytes(stream.next_window()) == live
    assert trace_events["emulations"] == 2
    assert trace_fingerprint(program, 100) != trace_fingerprint(_stripped(program), 100)


#: Hints before the first entry and between two later ones.
HINT_RUNS = _program(
    main=[
        (
            "entry",
            [_hint(), _hint(), Instruction.load_imm(R1, 0)]
            + [_hint(), _hint(), _hint()]
            + [_add(), Instruction.halt()],
        )
    ],
)


@pytest.mark.parametrize("budget", range(1, 9))
def test_budget_ending_inside_a_run_of_hints(budget):
    """Hints count against the budget, so a budget can end inside a run
    of them (the entry block's leading run, or one after an entry); the
    last kept entry still points at the next one."""
    assert _mapped(HINT_RUNS, budget) == _live(HINT_RUNS, budget)


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
    live = _live(hinted, budget)
    assert _mapped(hinted, budget, source=base) == live
    assert _oracle(hinted, budget, source=base) == live
