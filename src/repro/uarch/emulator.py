"""Functional (architectural) emulation of IR programs.

The timing simulator is trace-driven: this emulator executes a program's
semantics -- register values, memory contents, branch outcomes, call/return
nesting -- and yields the committed dynamic instruction stream, annotated
with everything the timing model needs (program counter, branch outcome and
target, effective memory address).  This mirrors how SimpleScalar's
functional core feeds its timing core.

Execution is by compiled *segments*.  A segment is a run of one block from
an entry point up to and including its first control instruction (BEQZ,
BNEZ, JUMP, CALL, RET or HALT), or to the block's end when it holds none.
On first entry, the segment's straight-line part becomes one generated
Python function whose statements are the interpreter's expressions with
register indices, immediates and the ``int()``/``float()`` conversions
resolved when it is generated; it returns the segment's memory column.
The emulation loop executes the control instruction itself and extends
each trace column once per segment.

Determinism matters for reproducibility: uninitialised memory reads return a
value derived from the address by a fixed hash, so every run of a given
program produces exactly the same trace.
"""

from __future__ import annotations

import array
import bisect
import builtins
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, NUM_FP_ARCH_REGS, ZERO_REG


_VALUE_MASK = (1 << 63) - 1
_UNINIT_HASH_MULTIPLIER = 2654435761


#: Address of a program's first instruction.
CODE_BASE = 0x1000

#: The trace columns ``(pcs, next_pcs, takens, mems)``: ``array('q')``
#: pcs, next pcs and effective addresses (0 off memory operations), and
#: one 0/1 byte per entry of branch outcomes.
Columns = tuple[array.array, array.array, bytearray, array.array]


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


# ----------------------------------------------------------------------
# Segment compilation
# ----------------------------------------------------------------------
# How a segment ends, that is what the emulation loop does after its
# straight-line part.  A segment that falls off its block's end, or ends
# in JUMP or HALT, has one static outcome.
_STATIC = 0
_BRANCH = 1
_CALL = 2
_RET = 3

#: Marks an operand that is not a compile-time constant.
_COMPUTED = object()


class _Segment(NamedTuple):
    """One compiled run, in the order the emulation loop unpacks it.

    ``takens``, ``resume`` (the pc executed next; 0 ends the emulation)
    and ``last_next`` (the next pc recorded for the segment's last entry)
    describe its static outcome: the fall-through of a block or of a
    branch not taken, a jump, a call, a halt, a RET from the entry
    procedure.  They differ only where the emulation ends: after HALT or
    that RET the last entry records the pc that follows it.  ``detail``
    holds what the loop needs for the other outcomes: for a branch
    ``(register file, index, is BNEZ, taken takens, target pc)``, for a
    call ``(return pc, caller name)``.
    """

    run: Callable
    length: int
    pcs: array.array
    takens: bytes
    resume: int
    last_next: int
    kind: int
    detail: Optional[tuple]


def _compile_run(instructions: Sequence[Instruction], control: bool, name: str) -> Callable:
    """One generated function executing ``instructions`` (none of them
    control instructions) on ``(regs, fregs, memory)``.

    Each statement is the interpreter's expression for its instruction,
    with register indices in place and every ``int()``/``float()`` whose
    operand type is known dropped or, for an immediate, folded into a
    constant.  A conversion that raises is left to run time, so it
    raises at its own instruction.  The function returns the run's
    memory column as a list (which ``array.fromlist`` appends without
    the per-item iteration ``extend`` pays): the effective address of
    each load and store, 0 for every other entry, plus a 0 for the
    control instruction that follows when ``control`` is set.
    """
    lines: list[str] = []
    column: list[str] = []
    constants: dict[str, object] = {}

    def constant(value) -> str:
        # A literal compiles faster than a default argument; other values
        # (an int too long to print, a non-finite float) become defaults.
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            try:
                return f"({value!r})"
            except ValueError:
                pass
        key = f"k{len(constants)}"
        constants[key] = value
        return key

    def convert(operand: tuple, kind: type) -> str:
        expr, known, value = operand
        if known is kind:
            return expr
        if value is not _COMPUTED:
            try:
                return constant(kind(value))
            except (OverflowError, ValueError, TypeError):
                pass
        return f"{kind.__name__}({expr})"

    def register(reg) -> tuple:
        if reg.is_fp:
            return (f"fregs[{reg.index}]", float, _COMPUTED)
        return (f"regs[{reg.index}]", int, _COMPUTED)

    def immediate(value) -> tuple:
        known = type(value) if type(value) in (int, float) else None
        return (constant(value), known, value)

    for slot, instruction in enumerate(instructions):
        opcode = instruction.opcode
        srcs = instruction.srcs
        dest = instruction.dests[0] if instruction.dests else None
        if opcode is Opcode.LOAD or opcode is Opcode.STORE:
            address = f"m{slot}"
            lines.append(
                f"{address} = ({convert(register(srcs[0]), int)} + "
                f"{constant(instruction.imm)}) & {_VALUE_MASK}"
            )
            column.append(address)
            if opcode is Opcode.STORE:
                value = convert(register(srcs[1]), int)
                lines.append(f"memory[{address}] = ({value}) & {_VALUE_MASK}")
                continue
            loaded = (
                f"memory.get({address}, "
                f"({address} * {_UNINIT_HASH_MULTIPLIER}) & 0xFFFF)"
            )
            if dest.is_fp:
                lines.append(f"fregs[{dest.index}] = float({loaded})")
            elif dest.index != ZERO_REG:
                lines.append(f"regs[{dest.index}] = {loaded} & {_VALUE_MASK}")
            continue
        column.append("0")
        if opcode is Opcode.NOP or opcode is Opcode.HINT:
            continue

        a = register(srcs[0]) if srcs else ("0", int, 0)
        b = register(srcs[1]) if len(srcs) > 1 else immediate(instruction.imm)
        if opcode is Opcode.LI:
            result = immediate(instruction.imm)
        elif opcode is Opcode.MOV:
            result = a
        elif opcode is Opcode.ADD or opcode is Opcode.SUB:
            sign = "+" if opcode is Opcode.ADD else "-"
            if a[1] is int and b[1] is int:
                known = int
            elif a[1] in (int, float) and b[1] in (int, float):
                known = float
            else:
                known = None
            result = (f"{a[0]} {sign} {b[0]}", known, _COMPUTED)
        elif opcode is Opcode.CMP_LT or opcode is Opcode.CMP_EQ:
            relation = "<" if opcode is Opcode.CMP_LT else "=="
            result = (f"(1 if {a[0]} {relation} {b[0]} else 0)", int, _COMPUTED)
        elif opcode in _INT_OPERATORS:
            left, right = convert(a, int), convert(b, int)
            if opcode is Opcode.SHL or opcode is Opcode.SHR:
                right = f"({right} & 31)"
            expr = f"{left} {_INT_OPERATORS[opcode]} {right}"
            result = (expr, int, _COMPUTED)
        elif opcode is Opcode.DIV:
            left, right = convert(a, int), convert(b, int)
            expr = f"({left} // {right} if {right} != 0 else 0)"
            result = (expr, int, _COMPUTED)
        elif opcode in _FLOAT_OPERATORS:
            left, right = convert(a, float), convert(b, float)
            expr = f"{left} {_FLOAT_OPERATORS[opcode]} {right}"
            result = (expr, float, _COMPUTED)
        elif opcode is Opcode.FDIV:
            left, right = convert(a, float), convert(b, float)
            expr = f"({left} / {right} if {right} != 0.0 else 0.0)"
            result = (expr, float, _COMPUTED)
        else:  # pragma: no cover - every non-control opcode is handled above
            raise ValueError(f"cannot emulate {opcode}")

        if dest is None or (not dest.is_fp and dest.index == ZERO_REG):
            # The result is discarded, but computing it may still raise.
            lines.append(result[0])
        elif dest.is_fp:
            lines.append(f"fregs[{dest.index}] = {convert(result, float)}")
        else:
            lines.append(f"regs[{dest.index}] = ({convert(result, int)}) & {_VALUE_MASK}")

    if control:
        column.append("0")
    if not lines:
        # Nothing but hints and NOPs: no code to compile.
        zeros = [0] * len(column)
        return lambda regs, fregs, memory: zeros
    defaults = "".join(f", {key}={key}" for key in constants)
    source = "".join(
        [f"def run(regs, fregs, memory{defaults}):\n"]
        + [f"    {line}\n" for line in lines]
        + [f"    return [{', '.join(column)}]\n"]
    )
    # Defined in a throwaway local namespace, so the functions share one
    # globals dict and nothing refers back to them: their code is freed
    # with the emulator that compiled them.
    namespace = dict(constants)
    exec(compile(source, name, "exec"), _SEGMENT_GLOBALS, namespace)
    return namespace["run"]


#: The globals of every generated function: the builtins ``int`` and
#: ``float`` are all their code looks up.
_SEGMENT_GLOBALS = {"__builtins__": builtins}

_INT_OPERATORS = {
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
    Opcode.SHL: "<<",
    Opcode.SHR: ">>",
    Opcode.MUL: "*",
}
_FLOAT_OPERATORS = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}


class FunctionalEmulator:
    """Architectural emulator for IR programs (see the module docstring)."""

    #: Base address of the data segment (separated from code addresses).
    DATA_BASE = 0x100000

    #: Default stack pointer value.
    STACK_BASE = 0x7F0000

    def __init__(self, program: Program, max_call_depth: int = 256, hints: bool = True):
        program.validate()
        self.program = program
        # ``hints=False`` emulates the program with its hint NOOPs
        # stripped: they never enter its layout, so no segment holds one.
        self.layout = ProgramLayout.for_program(program, hints=hints)
        self.max_call_depth = max_call_depth

        self.registers = [0] * NUM_ARCH_REGS
        self.fp_registers = [0.0] * NUM_FP_ARCH_REGS
        self.registers[29] = self.STACK_BASE  # conventional stack pointer
        self.memory: dict[int, int] = {}
        self.instructions_executed = 0

        # Code is laid out contiguously: a procedure spans [start, end),
        # and a straight-line run ends where the next block starts.
        layout = self.layout
        self._procedure_names = list(layout.procedure_pc)
        self._procedure_starts = list(layout.procedure_pc.values())
        ends = self._procedure_starts[1:] + [CODE_BASE + layout.code_size]
        self._procedure_end = dict(zip(self._procedure_names, ends))
        self._block_starts = frozenset(layout.block_pc.values())
        # Entry pc -> compiled segment, filled on first entry.
        self._segments: dict[int, _Segment] = {}

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
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 1_000_000) -> Iterator[DynamicInstruction]:
        """Execute from the program entry; yield committed dynamic instructions.

        Execution stops at ``HALT``, when the entry procedure returns,
        when control falls off the end of any procedure (the entry or
        one it called), or after ``max_instructions`` dynamic
        instructions.  The whole stream is produced by
        :meth:`run_collect` and then wrapped in
        :class:`DynamicInstruction` objects, each pc resolved to its
        static instruction through the layout: ``taken`` is a ``bool``,
        and ``mem_address`` is the effective address of a load or store
        (an address of 0 included) and None for every other instruction.
        """
        pcs, next_pcs, takens, mems = self.run_collect(max_instructions)
        instruction_at = self.layout.instruction_at
        for seq, pc in enumerate(pcs):
            static = instruction_at[pc]
            yield DynamicInstruction(
                static=static,
                seq=seq,
                pc=pc,
                next_pc=next_pcs[seq],
                taken=bool(takens[seq]),
                mem_address=mems[seq] if static.is_memory else None,
            )

    def run_collect(self, max_instructions: int = 1_000_000) -> Columns:
        """Execute and return the whole stream as one set of columns,
        ``(pcs, next_pcs, takens, mems)`` (see :data:`Columns`).

        The column-oriented form feeds :mod:`repro.uarch.trace` directly,
        avoiding one :class:`DynamicInstruction` allocation per committed
        instruction; a pc names its static instruction through
        ``layout.instruction_at``.  The columns are the buffers the run
        filled, handed over as they are: only ``next_pcs`` is built at
        the end, as one copy of ``pcs`` shifted by an entry.

        Each step executes one segment: its compiled straight-line part,
        then its control instruction.  When the budget ends inside a
        segment, only the instructions before the cut run, through a
        function compiled for that prefix.  A CALL past
        ``max_call_depth`` raises :class:`EmulationLimitExceeded`.
        """
        regs = self.registers
        fregs = self.fp_registers
        memory = self.memory
        segments = self._segments
        max_call_depth = self.max_call_depth

        # An entry's next pc is the pc of the entry after it, so only the
        # last entry's is kept, in last_next.
        pcs = array.array("q")
        takens = bytearray()
        mems = array.array("q")
        pcs_extend = pcs.extend
        takens_extend = takens.extend
        mems_extend = mems.fromlist
        call_stack: list[int] = []
        seq = 0
        last_next = 0
        pc = self._entry_pc(self.program.entry)

        while pc and seq < max_instructions:
            segment = segments.get(pc)
            if segment is None:
                segment = self._compile_segment(pc)
            run, length, seg_pcs, seg_takens, resume, last_next, kind, detail = segment
            if seq + length > max_instructions:
                # The budget ends before the control instruction: run the
                # prefix it allows, and stop.
                length = max_instructions - seq
                run = self._run_function(pc, length, False)
                last_next = seg_pcs[length]
                seg_pcs = seg_pcs[:length]
                seg_takens = bytes(length)
                resume = 0
                kind = _STATIC
            addresses = run(regs, fregs, memory)
            if kind == _BRANCH:
                file, index, bnez, taken_takens, target = detail
                value = file[index]
                if (value != 0) if bnez else (value == 0):
                    seg_takens = taken_takens
                    resume = last_next = target
            elif kind == _CALL:
                if len(call_stack) >= max_call_depth:
                    raise EmulationLimitExceeded(
                        f"call depth exceeded {max_call_depth} in {detail[1]}"
                    )
                call_stack.append(detail[0])
            elif kind == _RET and call_stack:
                resume = last_next = call_stack.pop()
            pcs_extend(seg_pcs)
            takens_extend(seg_takens)
            mems_extend(addresses)
            seq += length
            pc = resume
        self.instructions_executed = seq
        next_pcs = pcs[1:]
        if pcs:
            next_pcs.append(last_next)
        return pcs, next_pcs, takens, mems

    def run_collect_windows(self, max_instructions: int = 1_000_000) -> Iterator[Columns]:
        """:meth:`run_collect` as a generator: it yields the whole run's
        columns once."""
        yield self.run_collect(max_instructions)

    # ------------------------------------------------------------------
    def _compile_segment(self, pc: int) -> _Segment:
        """Compile the segment entered at ``pc`` and remember it."""
        layout = self.layout
        name = self._procedure_names[bisect.bisect_right(self._procedure_starts, pc) - 1]
        end = self._procedure_end[name]
        following = pc
        while True:
            control = layout.instruction_at[following]
            following += 4
            if control.is_control:
                break
            if following in self._block_starts or following == end:
                control = None
                break
        length = (following - pc) // 4

        def within(target: int) -> int:
            # Execution falls off the procedure's end at ``end``.
            return target if target < end else 0

        kind = _STATIC
        taken = False
        detail = None
        opcode = control.opcode if control is not None else None
        if control is None:
            resume = last_next = within(following)
        elif opcode is Opcode.BEQZ or opcode is Opcode.BNEZ:
            kind = _BRANCH
            resume = last_next = within(following)
            source = control.srcs[0]
            detail = (
                self.fp_registers if source.is_fp else self.registers,
                source.index,
                opcode is Opcode.BNEZ,
                bytes(length - 1) + b"\x01",
                within(layout.block_pc[(name, control.target)]),
            )
        elif opcode is Opcode.JUMP:
            taken = True
            resume = last_next = within(layout.block_pc[(name, control.target)])
        elif opcode is Opcode.CALL:
            kind = _CALL
            taken = True
            resume = last_next = self._entry_pc(control.call_target)
            detail = (within(following), name)
        elif opcode is Opcode.RET:
            kind = _RET
            taken = True
            resume, last_next = 0, following
        else:  # HALT
            resume, last_next = 0, following
        segment = _Segment(
            self._run_function(pc, length - (control is not None), control is not None),
            length,
            array.array("q", range(pc, following, 4)),
            bytes(length - 1) + bytes([taken]),
            resume,
            last_next,
            kind,
            detail,
        )
        self._segments[pc] = segment
        return segment

    def _run_function(self, pc: int, count: int, control: bool) -> Callable:
        """The compiled straight-line run of the ``count`` instructions
        from ``pc`` (see :func:`_compile_run`)."""
        instruction_at = self.layout.instruction_at
        return _compile_run(
            [instruction_at[at] for at in range(pc, pc + 4 * count, 4)],
            control,
            f"<segment at {pc:#x}>",
        )

    def _entry_pc(self, procedure: str) -> int:
        """The pc of ``procedure``'s first instruction; 0 when it has none."""
        start = self.layout.procedure_pc[procedure]
        return start if start < self._procedure_end[procedure] else 0
