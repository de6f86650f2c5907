"""Functional (architectural) emulation of IR programs.

The timing simulator is trace-driven: this emulator executes a program's
semantics -- register values, memory contents, branch outcomes, call/return
nesting -- and yields the committed dynamic instruction stream, annotated
with everything the timing model needs (program counter, branch outcome and
target, effective memory address).  This mirrors how SimpleScalar's
functional core feeds its timing core.

Determinism matters for reproducibility: uninitialised memory reads return a
value derived from the address by a fixed hash, so every run of a given
program produces exactly the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, NUM_FP_ARCH_REGS, ZERO_REG


_VALUE_MASK = (1 << 63) - 1
_UNINIT_HASH_MULTIPLIER = 2654435761

# The ALU dispatch in ``run_collect_windows`` compares against these
# module-level aliases: on CPython 3.11 every ``Opcode.ADD``-style lookup
# goes through the enum metaclass and costs several times a global read,
# once per comparison in the chain.
_ADD = Opcode.ADD
_LI = Opcode.LI
_SUB = Opcode.SUB
_MOV = Opcode.MOV
_CMP_LT = Opcode.CMP_LT
_CMP_EQ = Opcode.CMP_EQ
_AND = Opcode.AND
_OR = Opcode.OR
_XOR = Opcode.XOR
_SHL = Opcode.SHL
_SHR = Opcode.SHR
_MUL = Opcode.MUL
_DIV = Opcode.DIV
_FADD = Opcode.FADD
_FSUB = Opcode.FSUB
_FMUL = Opcode.FMUL
_FDIV = Opcode.FDIV


#: Address of a program's first instruction.
CODE_BASE = 0x1000


class EmulationLimitExceeded(Exception):
    """Raised when the call-depth safety limit is exceeded."""


@dataclass
class ProgramLayout:
    """Static address assignment for every instruction of a program.

    Instructions get consecutive 4-byte addresses, procedure by procedure
    and block by block, so the instruction cache sees realistic spatial
    locality and every static instruction has a unique PC for the branch
    predictor and BTB.  This is the one place addresses are assigned:
    ``instruction_at`` maps each PC back to its static instruction (in PC
    order), and the replay kernels' static table is built from it.
    """

    instruction_pc: dict[int, int] = field(default_factory=dict)  # uid -> pc
    # pc -> static instruction, in pc order.
    instruction_at: dict[int, Instruction] = field(default_factory=dict)
    block_pc: dict[tuple[str, str], int] = field(default_factory=dict)
    procedure_pc: dict[str, int] = field(default_factory=dict)
    code_size: int = 0

    @classmethod
    def for_program(
        cls, program: Program, base_address: int = CODE_BASE, hints: bool = True
    ) -> "ProgramLayout":
        """Lay out ``program`` starting at ``base_address``.

        ``hints=False`` skips its hint NOOPs, giving the layout of the
        same program with its hints stripped: the pcs a trace of that
        program records.
        """
        layout = cls()
        pc = base_address
        for procedure in program.procedures.values():
            layout.procedure_pc[procedure.name] = pc
            for block in procedure.blocks:
                layout.block_pc[(procedure.name, block.label)] = pc
                for instruction in block.instructions:
                    if not hints and instruction.opcode is Opcode.HINT:
                        continue
                    layout.instruction_pc[instruction.uid] = pc
                    layout.instruction_at[pc] = instruction
                    pc += 4
        layout.code_size = pc - base_address
        return layout


@dataclass
class DynamicInstruction:
    """One element of the committed dynamic instruction stream.

    Attributes:
        static: the static instruction executed.
        seq: sequence number in commit order (0-based).
        pc: the instruction's address.
        next_pc: address of the next dynamic instruction.
        taken: for control transfers, whether the transfer was taken.
        mem_address: effective address for loads and stores.
    """

    static: Instruction
    seq: int
    pc: int
    next_pc: int
    taken: bool = False
    mem_address: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.static.is_branch

    @property
    def is_load(self) -> bool:
        return self.static.is_load

    @property
    def is_store(self) -> bool:
        return self.static.is_store

    @property
    def is_hint(self) -> bool:
        return self.static.is_hint


# Pre-compiled execution-spec kinds (first element of each spec tuple).
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
    """Lower one static instruction into an interpreter execution spec.

    The spec front-loads everything the main loop would otherwise fetch
    per dynamic execution: operand register indices and files, immediates,
    and branch/jump targets resolved to block indices.
    """
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
        return (
            _K_LOAD,
            _reg_spec(instr.srcs[0]),
            instr.imm,
            _reg_spec(instr.dests[0]),
        )
    if opcode is Opcode.STORE:
        return (
            _K_STORE,
            _reg_spec(instr.srcs[0]),
            instr.imm,
            _reg_spec(instr.srcs[1]),
        )
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


class FunctionalEmulator:
    """Architectural interpreter for IR programs."""

    #: Base address of the data segment (separated from code addresses).
    DATA_BASE = 0x100000

    #: Default stack pointer value.
    STACK_BASE = 0x7F0000

    def __init__(self, program: Program, max_call_depth: int = 256):
        program.validate()
        self.program = program
        self.layout = ProgramLayout.for_program(program)
        self.max_call_depth = max_call_depth

        self.registers = [0] * NUM_ARCH_REGS
        self.fp_registers = [0.0] * NUM_FP_ARCH_REGS
        self.registers[29] = self.STACK_BASE  # conventional stack pointer
        self.memory: dict[int, int] = {}
        self.instructions_executed = 0

        # label -> block index per procedure, so branch resolution is a
        # dict lookup instead of a linear scan of the block list.
        self._block_index: dict[str, dict[str, int]] = {
            name: {block.label: i for i, block in enumerate(proc.blocks)}
            for name, proc in program.procedures.items()
        }
        # Per-procedure list of per-block [(pc, spec), ...] pairs, so the
        # main loop never consults the uid -> pc map and dispatches on a
        # pre-compiled small-int execution spec instead of opcode enums
        # and ``Reg`` attribute chains; built lazily on first entry into
        # each procedure.
        self._proc_cache: dict[str, list[list[tuple]]] = {}

    def _blocks_for(self, proc_name: str) -> list[list[tuple]]:
        cached = self._proc_cache.get(proc_name)
        if cached is None:
            instruction_pc = self.layout.instruction_pc
            block_index = self._block_index[proc_name]
            cached = [
                [
                    (
                        instruction_pc[instr.uid],
                        _compile_instruction(instr, block_index),
                    )
                    for instr in block.instructions
                ]
                for block in self.program.procedures[proc_name].blocks
            ]
            self._proc_cache[proc_name] = cached
        return cached

    # ------------------------------------------------------------------
    # Memory helpers
    # ------------------------------------------------------------------
    def read_memory(self, address: int) -> int:
        """Read ``address``; uninitialised locations return a deterministic value."""
        address &= _VALUE_MASK
        if address in self.memory:
            return self.memory[address]
        return (address * _UNINIT_HASH_MULTIPLIER) & 0xFFFF

    def write_memory(self, address: int, value: int) -> None:
        """Write ``value`` to ``address``."""
        self.memory[address & _VALUE_MASK] = value & _VALUE_MASK

    # ------------------------------------------------------------------
    # Register helpers
    # ------------------------------------------------------------------
    def _read_reg(self, reg) -> int | float:
        if reg.is_fp:
            return self.fp_registers[reg.index]
        if reg.index == ZERO_REG:
            return 0
        return self.registers[reg.index]

    def _write_reg(self, reg, value) -> None:
        if reg.is_fp:
            self.fp_registers[reg.index] = float(value)
            return
        if reg.index == ZERO_REG:
            return
        self.registers[reg.index] = int(value) & _VALUE_MASK

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 1_000_000) -> Iterator[DynamicInstruction]:
        """Execute from the program entry; yield committed dynamic instructions.

        Execution stops at ``HALT``, when the entry procedure returns, or
        after ``max_instructions`` dynamic instructions.  The whole stream
        is produced by :meth:`run_collect` (bounded by
        ``max_instructions``) and then wrapped in
        :class:`DynamicInstruction` objects, each pc resolved to its
        static instruction through the layout.
        """
        pcs, next_pcs, takens, mems = self.run_collect(max_instructions)
        instruction_at = self.layout.instruction_at
        for seq in range(len(pcs)):
            yield DynamicInstruction(
                static=instruction_at[pcs[seq]],
                seq=seq,
                pc=pcs[seq],
                next_pc=next_pcs[seq],
                taken=takens[seq],
                mem_address=mems[seq],
            )

    def run_collect(
        self, max_instructions: int = 1_000_000
    ) -> tuple[list[int], list[int], list[bool], list[Optional[int]]]:
        """Execute and return ``(pcs, next_pcs, takens, mems)``.

        The column-oriented form feeds :mod:`repro.uarch.trace` directly,
        avoiding one :class:`DynamicInstruction` allocation per committed
        instruction; a pc names its static instruction through
        ``layout.instruction_at``.
        """
        pcs: list[int] = []
        next_pcs: list[int] = []
        takens: list[bool] = []
        mems: list[Optional[int]] = []
        for chunk in self.run_collect_windows(max_instructions, None):
            if not pcs:
                pcs, next_pcs, takens, mems = chunk
            else:  # pragma: no cover - window_size=None yields one chunk
                pcs.extend(chunk[0])
                next_pcs.extend(chunk[1])
                takens.extend(chunk[2])
                mems.extend(chunk[3])
        return pcs, next_pcs, takens, mems

    def run_collect_windows(
        self, max_instructions: int = 1_000_000, window_size: Optional[int] = None
    ) -> Iterator[tuple[list[int], list[int], list[bool], list[Optional[int]]]]:
        """Execute, yielding ``(pcs, next_pcs, takens, mems)`` chunks.

        Every yielded chunk except possibly the last holds exactly
        ``window_size`` committed instructions; ``window_size=None`` (or
        ``<= 0``) yields the whole stream as one chunk.  Chunks are
        produced in commit order and the architectural state advances
        eagerly, so consuming lazily bounds the peak size of the column
        lists by the window size instead of the instruction budget — this
        is the decode-memory bound behind windowed trace replay
        (:mod:`repro.uarch.trace`).

        ``instructions_executed`` is only accurate once the generator is
        exhausted (an abandoned generator stops mid-stream).
        """
        program = self.program
        regs = self.registers
        fregs = self.fp_registers
        memory = self.memory
        max_call_depth = self.max_call_depth

        window_limit = window_size if window_size and window_size > 0 else None

        pcs: list[int] = []
        next_pcs: list[int] = []
        takens: list[bool] = []
        mems: list[Optional[int]] = []
        pcs_append = pcs.append
        next_pcs_append = next_pcs.append
        takens_append = takens.append
        mems_append = mems.append

        # The current position is (procedure name, block index, instruction
        # index) held in plain locals; ``blocks`` holds the procedure's
        # pre-zipped [(pc, spec), ...] lists and ``instrs`` the
        # current block's, refreshed whenever control flow moves.
        proc_name = program.entry
        blocks = self._blocks_for(proc_name)
        block_idx = 0
        instr_idx = 0
        instrs = blocks[0] if blocks else []
        call_stack: list[tuple[str, int, int]] = []
        seq = 0

        while seq < max_instructions:
            if instr_idx >= len(instrs):
                # Fall off the end of a block: continue with the next block.
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
            # Default successor: the next instruction of this block.
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
                if opcode is _ADD:
                    result = a + b
                elif opcode is _LI:
                    result = imm
                elif opcode is _SUB:
                    result = a - b
                elif opcode is _MOV:
                    result = a
                elif opcode is _CMP_LT:
                    result = 1 if a < b else 0
                elif opcode is _CMP_EQ:
                    result = 1 if a == b else 0
                elif opcode is _AND:
                    result = int(a) & int(b)
                elif opcode is _OR:
                    result = int(a) | int(b)
                elif opcode is _XOR:
                    result = int(a) ^ int(b)
                elif opcode is _SHL:
                    result = int(a) << (int(b) & 31)
                elif opcode is _SHR:
                    result = int(a) >> (int(b) & 31)
                elif opcode is _MUL:
                    result = int(a) * int(b)
                elif opcode is _DIV:
                    result = int(a) // int(b) if int(b) != 0 else 0
                elif opcode is _FADD:
                    result = float(a) + float(b)
                elif opcode is _FSUB:
                    result = float(a) - float(b)
                elif opcode is _FMUL:
                    result = float(a) * float(b)
                elif opcode is _FDIV:
                    result = float(a) / float(b) if float(b) != 0.0 else 0.0
                else:  # pragma: no cover - defensive
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
                # Inlined read_memory + destination write.
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
            # _K_NOOP: no architectural effect.

            if halt:
                next_pc = pc + 4
            elif (
                next_proc is proc_name
                and next_block == block_idx
                and next_instr == instr_idx + 1
                and next_instr < len(instrs)
            ):
                # Straight-line successor: layout PCs are consecutive.
                next_pc = pc + 4
            else:
                next_pc = self._position_pc(next_proc, next_block, next_instr)

            pcs_append(pc)
            next_pcs_append(next_pc)
            takens_append(taken)
            mems_append(mem_address)
            seq += 1
            if window_limit is not None and len(pcs) >= window_limit:
                yield (pcs, next_pcs, takens, mems)
                pcs = []
                next_pcs = []
                takens = []
                mems = []
                pcs_append = pcs.append
                next_pcs_append = next_pcs.append
                takens_append = takens.append
                mems_append = mems.append
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
        if pcs:
            yield (pcs, next_pcs, takens, mems)

    # ------------------------------------------------------------------
    def _position_pc(self, proc_name: str, block_index: int, instr_index: int) -> int:
        """PC of the instruction executed next from the given position.

        A position past a block's end, or in an empty block, continues at
        the first instruction of the next non-empty block, as execution
        does; 0 when the procedure ends first.
        """
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
