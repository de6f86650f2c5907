"""The segment-compiled emulator against the interpreter it replaced.

:class:`ReferenceEmulator` is the per-instruction interpreter loop the
emulator ran before it compiled segments, kept here as the oracle.  Every
test runs one program on both and requires the same trace columns, the
same instruction count and the same final registers and memory, or the
same exception.
"""

from __future__ import annotations

import array
import functools
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompilerConfig, compile_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import ZERO_REG, fp_reg, int_reg
from repro.uarch.emulator import (
    EmulationLimitExceeded,
    FunctionalEmulator,
    _VALUE_MASK,
    _UNINIT_HASH_MULTIPLIER,
)
from repro.uarch.trace import _program_record
from repro.workloads import ALL_BENCHMARKS, build_benchmark
from tests.test_trace_derivation import EDGE_CASES

MODES = ("baseline", "noop", "extension", "improved")


# ----------------------------------------------------------------------
# The oracle: the per-instruction interpreter
# ----------------------------------------------------------------------
_K_ALU = 0
_K_BRANCH = 1
_K_LOAD = 2
_K_STORE = 3
_K_NOOP = 4
_K_CALL = 5
_K_RET = 6
_K_JUMP = 7
_K_HALT = 8


def _reg_spec(reg) -> tuple[int, bool]:
    return (reg.index, reg.is_fp)


def _compile_instruction(instr: Instruction, block_index: dict[str, int]) -> tuple:
    """Lower one static instruction into an interpreter execution spec."""
    opcode = instr.opcode
    if opcode is Opcode.HALT:
        return (_K_HALT,)
    if opcode is Opcode.CALL:
        return (_K_CALL, instr.call_target)
    if opcode is Opcode.RET:
        return (_K_RET,)
    if opcode is Opcode.JUMP:
        return (_K_JUMP, block_index[instr.target])
    if opcode is Opcode.BEQZ or opcode is Opcode.BNEZ:
        return (
            _K_BRANCH,
            opcode is Opcode.BNEZ,
            _reg_spec(instr.srcs[0]),
            block_index[instr.target],
        )
    if opcode is Opcode.LOAD:
        return (_K_LOAD, _reg_spec(instr.srcs[0]), instr.imm, _reg_spec(instr.dests[0]))
    if opcode is Opcode.STORE:
        return (_K_STORE, _reg_spec(instr.srcs[0]), instr.imm, _reg_spec(instr.srcs[1]))
    if opcode is Opcode.NOP or opcode is Opcode.HINT:
        return (_K_NOOP,)
    srcs = instr.srcs
    return (
        _K_ALU,
        opcode,
        _reg_spec(srcs[0]) if srcs else None,
        _reg_spec(srcs[1]) if len(srcs) > 1 else None,
        _reg_spec(instr.dests[0]) if instr.dests else None,
        instr.imm,
    )


class ReferenceEmulator(FunctionalEmulator):
    """The emulator with its per-instruction interpreter loop: one
    dispatch per dynamic instruction, one append per column, and
    ``(pcs, next_pcs, takens, mems)`` lists with ``bool`` takens and
    ``None`` mems off memory operations."""

    def _blocks_for(self, proc_name: str) -> list[list[tuple]]:
        cached = self.__dict__.setdefault("_proc_cache", {}).get(proc_name)
        if cached is None:
            instruction_pc = self.layout.instruction_pc
            blocks = self.program.procedures[proc_name].blocks
            block_index = {block.label: i for i, block in enumerate(blocks)}
            cached = [
                [
                    (instruction_pc[instr.uid], _compile_instruction(instr, block_index))
                    for instr in block.instructions
                ]
                for block in blocks
            ]
            self._proc_cache[proc_name] = cached
        return cached

    def _position_pc(self, proc_name: str, block_index: int, instr_index: int) -> int:
        """PC of the instruction executed next from the given position:
        past a block's end or in an empty block, the next non-empty
        block's first; 0 when the procedure ends first."""
        procedure = self.program.procedures.get(proc_name)
        if procedure is None:
            return 0
        blocks = procedure.blocks
        while block_index < len(blocks):
            instructions = blocks[block_index].instructions
            if instr_index < len(instructions):
                return self.layout.instruction_pc[instructions[instr_index].uid]
            block_index += 1
            instr_index = 0
        return 0

    def run_collect(self, max_instructions=1_000_000):
        regs = self.registers
        fregs = self.fp_registers
        memory = self.memory
        max_call_depth = self.max_call_depth
        pcs: list = []
        next_pcs: list = []
        takens: list = []
        mems: list = []

        proc_name = self.program.entry
        blocks = self._blocks_for(proc_name)
        block_idx = 0
        instr_idx = 0
        instrs = blocks[0] if blocks else []
        call_stack: list = []
        seq = 0

        while seq < max_instructions:
            if instr_idx >= len(instrs):
                block_idx += 1
                instr_idx = 0
                if block_idx >= len(blocks):
                    break
                instrs = blocks[block_idx]
                continue

            pc, spec = instrs[instr_idx]
            taken = False
            mem_address: Optional[int] = None
            halt = False
            next_proc = proc_name
            next_block = block_idx
            next_instr = instr_idx + 1

            kind = spec[0]
            if kind == _K_ALU:
                _, opcode, a_spec, b_spec, dest_spec, imm = spec
                if a_spec is None:
                    a = 0
                else:
                    a_idx, a_fp = a_spec
                    a = fregs[a_idx] if a_fp else regs[a_idx]
                if b_spec is None:
                    b = imm
                else:
                    b_idx, b_fp = b_spec
                    b = fregs[b_idx] if b_fp else regs[b_idx]
                if opcode is Opcode.ADD:
                    result = a + b
                elif opcode is Opcode.LI:
                    result = imm
                elif opcode is Opcode.SUB:
                    result = a - b
                elif opcode is Opcode.MOV:
                    result = a
                elif opcode is Opcode.CMP_LT:
                    result = 1 if a < b else 0
                elif opcode is Opcode.CMP_EQ:
                    result = 1 if a == b else 0
                elif opcode is Opcode.AND:
                    result = int(a) & int(b)
                elif opcode is Opcode.OR:
                    result = int(a) | int(b)
                elif opcode is Opcode.XOR:
                    result = int(a) ^ int(b)
                elif opcode is Opcode.SHL:
                    result = int(a) << (int(b) & 31)
                elif opcode is Opcode.SHR:
                    result = int(a) >> (int(b) & 31)
                elif opcode is Opcode.MUL:
                    result = int(a) * int(b)
                elif opcode is Opcode.DIV:
                    result = int(a) // int(b) if int(b) != 0 else 0
                elif opcode is Opcode.FADD:
                    result = float(a) + float(b)
                elif opcode is Opcode.FSUB:
                    result = float(a) - float(b)
                elif opcode is Opcode.FMUL:
                    result = float(a) * float(b)
                elif opcode is Opcode.FDIV:
                    result = float(a) / float(b) if float(b) != 0.0 else 0.0
                else:  # pragma: no cover - every ALU opcode is listed
                    result = 0
                if dest_spec is not None:
                    d_idx, d_fp = dest_spec
                    if d_fp:
                        fregs[d_idx] = float(result)
                    elif d_idx != ZERO_REG:
                        regs[d_idx] = int(result) & _VALUE_MASK
            elif kind == _K_BRANCH:
                _, is_bnez, (s_idx, s_fp), target_block = spec
                value = fregs[s_idx] if s_fp else regs[s_idx]
                taken = (value != 0) if is_bnez else (value == 0)
                if taken:
                    next_block = target_block
                    next_instr = 0
            elif kind == _K_LOAD:
                _, (b_idx, b_fp), imm, (d_idx, d_fp) = spec
                base = fregs[b_idx] if b_fp else regs[b_idx]
                mem_address = (int(base) + imm) & _VALUE_MASK
                value = memory.get(mem_address)
                if value is None:
                    value = (mem_address * _UNINIT_HASH_MULTIPLIER) & 0xFFFF
                if d_fp:
                    fregs[d_idx] = float(value)
                elif d_idx != ZERO_REG:
                    regs[d_idx] = value & _VALUE_MASK
            elif kind == _K_STORE:
                _, (b_idx, b_fp), imm, (v_idx, v_fp) = spec
                base = fregs[b_idx] if b_fp else regs[b_idx]
                mem_address = (int(base) + imm) & _VALUE_MASK
                value = fregs[v_idx] if v_fp else regs[v_idx]
                memory[mem_address] = int(value) & _VALUE_MASK
            elif kind == _K_CALL:
                if len(call_stack) >= max_call_depth:
                    raise EmulationLimitExceeded(
                        f"call depth exceeded {max_call_depth} in {proc_name}"
                    )
                call_stack.append((proc_name, block_idx, next_instr))
                next_proc = spec[1]
                next_block = 0
                next_instr = 0
                taken = True
            elif kind == _K_RET:
                taken = True
                if call_stack:
                    next_proc, next_block, next_instr = call_stack.pop()
                else:
                    halt = True
            elif kind == _K_JUMP:
                taken = True
                next_block = spec[1]
                next_instr = 0
            elif kind == _K_HALT:
                halt = True

            if halt:
                next_pc = pc + 4
            elif (
                next_proc is proc_name
                and next_block == block_idx
                and next_instr == instr_idx + 1
                and next_instr < len(instrs)
            ):
                next_pc = pc + 4
            else:
                next_pc = self._position_pc(next_proc, next_block, next_instr)

            pcs.append(pc)
            next_pcs.append(next_pc)
            takens.append(taken)
            mems.append(mem_address)
            seq += 1
            if halt:
                break
            if next_proc is not proc_name:
                proc_name = next_proc
                blocks = self._blocks_for(proc_name)
                block_idx = next_block
                instr_idx = next_instr
                instrs = blocks[block_idx] if block_idx < len(blocks) else []
            elif next_block != block_idx:
                block_idx = next_block
                instr_idx = next_instr
                instrs = blocks[block_idx] if block_idx < len(blocks) else []
            else:
                instr_idx = next_instr
        self.instructions_executed = seq
        return pcs, next_pcs, takens, mems


# ----------------------------------------------------------------------
# Comparing the two
# ----------------------------------------------------------------------
def _reference_columns(columns) -> tuple[bytes, ...]:
    pcs, next_pcs, takens, mems = columns
    return (
        array.array("q", pcs).tobytes(),
        array.array("q", next_pcs).tobytes(),
        bytes(map(bool, takens)),
        array.array("q", [0 if mem is None else mem for mem in mems]).tobytes(),
    )


def _columns(columns) -> tuple[bytes, ...]:
    pcs, next_pcs, takens, mems = columns
    assert (pcs.typecode, next_pcs.typecode, mems.typecode) == ("q", "q", "q")
    assert type(takens) is bytearray
    assert len(pcs) == len(next_pcs) == len(takens) == len(mems)
    return (pcs.tobytes(), next_pcs.tobytes(), bytes(takens), mems.tobytes())


def _outcome(emulator_class, program, budget, **kwargs) -> dict:
    """Everything one emulation decided: the columns (as bytes) and the
    final state, or the exception raised."""
    emulator = emulator_class(program, **kwargs)
    normalise = _reference_columns if emulator_class is ReferenceEmulator else _columns
    try:
        columns = normalise(emulator.run_collect(budget))
    except (EmulationLimitExceeded, ArithmeticError, TypeError, ValueError) as error:
        return {"raised": type(error), "message": str(error)}
    return {
        "columns": columns,
        "raised": None,
        "executed": emulator.instructions_executed,
        "registers": emulator.registers,
        "fp_registers": array.array("d", emulator.fp_registers).tobytes(),
        "memory": emulator.memory,
    }


def _assert_equivalent(program, budget, expected=None, **kwargs) -> tuple[dict, dict]:
    """Run ``program`` on the emulator and hold it to the interpreter's
    outcome: ``expected``, else a fresh interpreter run.  Returns both."""
    if expected is None:
        expected = _outcome(ReferenceEmulator, program, budget, **kwargs)
    actual = _outcome(FunctionalEmulator, program, budget, **kwargs)
    if expected["raised"] is EmulationLimitExceeded or expected["raised"] is None:
        # Named, not introspected: a diff of two 120k-entry columns
        # would take pytest minutes to render.
        differing = [key for key in expected if actual.get(key) != expected[key]]
        if differing:
            pytest.fail(f"{differing} differ from the interpreter's", pytrace=False)
    else:
        # An instruction raising inside a segment raises from the
        # segment's compiled function: the exception is the same.
        assert actual["raised"] is expected["raised"]
    return expected, actual


@functools.lru_cache(maxsize=None)
def _program(name: str, mode: str) -> Program:
    base = build_benchmark(name)
    if mode == "baseline":
        return base
    return compile_program(base, CompilerConfig(), mode=mode).instrumented_program


# ----------------------------------------------------------------------
# The extended suite
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_benchmark_programs_emulate_like_the_interpreter(name):
    """Every benchmark's four programs at the figure grid's budget and at
    small budgets, whose cuts fall inside segments.

    The interpreter reads only what the emulation digest covers, so
    programs sharing one (the tagged ones share the baseline's) are held
    to one interpreter run.
    """
    interpreted: dict = {}
    for mode in MODES:
        program = _program(name, mode)
        digest = _program_record(program)[0].emulation
        for budget in (120_000, 701, 2_500, 1, 0):
            key = (digest, budget)
            interpreted[key], _ = _assert_equivalent(program, budget, interpreted.get(key))
    assert len(interpreted) == 2 * 5


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_emulate_like_the_interpreter(case):
    """Hints at procedure ends, returns mid-block and from ``main``, empty
    blocks on every kind of entry: every budget."""
    program = EDGE_CASES[case]
    for budget in range(0, 40):
        _assert_equivalent(program, budget)


def test_the_generator_form_yields_the_whole_run_once():
    program = _program("gzip", "noop")
    whole = _columns(FunctionalEmulator(program).run_collect(2_500))
    yielded = [_columns(c) for c in FunctionalEmulator(program).run_collect_windows(2_500)]
    assert yielded == [whole]


# ----------------------------------------------------------------------
# The call-depth limit
# ----------------------------------------------------------------------
R1 = int_reg(1)


def _recursive_program() -> Program:
    """``main`` calls ``f``, which calls itself without end, three
    instructions after each entry."""
    program = Program(name="recursion")
    main = program.new_procedure("main")
    main.add_block("entry").extend([Instruction.load_imm(R1, 1), Instruction.call("f")])
    main.add_block("done").append(Instruction.halt())
    f = program.new_procedure("f")
    f.add_block("body").extend(
        [
            Instruction.alu(Opcode.ADD, R1, [R1], imm=1),
            Instruction.store(R1, int_reg(29), 8),
            Instruction.call("f"),
            Instruction.ret(),
        ]
    )
    program.validate()
    return program


@pytest.mark.parametrize("entry", ["run_collect", "run_collect_windows", "run"])
def test_call_depth_limit_raises_at_the_same_instruction(entry):
    """With a limit of 4, the fourth CALL inside ``f`` raises, as the
    14th instruction, as the interpreter's does, and the message names
    the caller.  Each way of running the emulator raises it before
    handing over any of the 13 instructions before it: the columns, the
    generator's one yield and the dynamic instructions all come from
    the whole run."""
    program = _recursive_program()
    _, outcome = _assert_equivalent(program, 1_000, max_call_depth=4)
    assert outcome["raised"] is EmulationLimitExceeded
    assert outcome["message"] == "call depth exceeded 4 in f"
    emulator = FunctionalEmulator(program, max_call_depth=4)
    handed_over = []
    with pytest.raises(EmulationLimitExceeded, match="^call depth exceeded 4 in f$"):
        if entry == "run_collect":
            handed_over.append(emulator.run_collect(1_000))
        else:
            handed_over.extend(getattr(emulator, entry)(1_000))
    assert handed_over == []


@pytest.mark.parametrize("budget", [12, 13])
def test_a_budget_ending_before_the_failing_call_returns_normally(budget):
    """The failing CALL is the 14th instruction: a budget of 13 ends on
    the instruction before it and one of 12 cuts its segment earlier.
    Neither may run past the budget into the CALL."""
    program = _recursive_program()
    _, outcome = _assert_equivalent(program, budget, max_call_depth=4)
    assert outcome["raised"] is None
    assert outcome["executed"] == budget
    with pytest.raises(EmulationLimitExceeded):
        FunctionalEmulator(program, max_call_depth=4).run_collect(14)


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
_INT_REGS = [int_reg(index) for index in (0, 1, 2, 3)]
_FP_REGS = [fp_reg(index) for index in (0, 1)]
_REGS = st.sampled_from(_INT_REGS + _FP_REGS)
_IMMEDIATES = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([31, 32, 63, 64, 2**62, 2**63 - 1, -(2**63), 2**64 + 5, 2**1100]),
    st.integers(-(2**70), 2**70),
    st.floats(),
)
_ALU_OPCODES = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.CMP_LT,
    Opcode.CMP_EQ,
    Opcode.MOV,
    Opcode.LI,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.FADD,
    Opcode.FSUB,
    Opcode.FMUL,
    Opcode.FDIV,
]


@st.composite
def _instructions(draw, labels: list[str], procedures: list[str]) -> Instruction:
    kind = draw(st.sampled_from(["alu"] * 6 + ["load", "store", "filler", "control"]))
    if kind == "alu":
        return Instruction(
            opcode=draw(st.sampled_from(_ALU_OPCODES)),
            dests=tuple(draw(st.lists(_REGS, max_size=1))),
            srcs=tuple(draw(st.lists(_REGS, max_size=2))),
            imm=draw(_IMMEDIATES),
        )
    if kind == "load":
        return Instruction.load(draw(_REGS), draw(_REGS), draw(_IMMEDIATES))
    if kind == "store":
        return Instruction.store(draw(_REGS), draw(_REGS), draw(_IMMEDIATES))
    if kind == "filler":
        return draw(st.sampled_from([Instruction(opcode=Opcode.NOP), Instruction.hint(9)]))
    control = draw(st.sampled_from(["beqz", "bnez", "jump", "call", "ret", "halt"]))
    if control == "beqz":
        return Instruction.branch_eqz(draw(_REGS), draw(st.sampled_from(labels)))
    if control == "bnez":
        return Instruction.branch_nez(draw(_REGS), draw(st.sampled_from(labels)))
    if control == "jump":
        return Instruction.jump(draw(st.sampled_from(labels)))
    if control == "call":
        return Instruction.call(draw(st.sampled_from(procedures)))
    return Instruction.ret() if control == "ret" else Instruction.halt()


@st.composite
def _programs(draw) -> Program:
    """Up to three procedures of up to four blocks, empty blocks and
    control instructions mid-block included."""
    names = ["main", "p1", "p2"][: draw(st.integers(1, 3))]
    program = Program(name="random")
    for name in names:
        procedure = program.new_procedure(name)
        labels = [f"{name}.{index}" for index in range(draw(st.integers(1, 4)))]
        for label in labels:
            procedure.add_block(label).extend(
                draw(st.lists(_instructions(labels, names), max_size=8))
            )
    program.validate()
    return program


@given(program=_programs(), budget=st.integers(0, 300), depth=st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_random_programs_emulate_like_the_interpreter(program, budget, depth):
    _assert_equivalent(program, budget, max_call_depth=depth)
