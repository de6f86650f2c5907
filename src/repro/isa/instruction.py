"""The IR instruction.

An :class:`Instruction` carries everything both halves of the system need:

* the compiler (:mod:`repro.core`) reads opcodes, register operands and
  latencies to build dependence graphs and writes the ``iq_tag`` field when
  the Extension/Improved encoding is used;
* the simulator (:mod:`repro.uarch`) executes the instruction functionally
  (registers, memory, control flow) and times it (functional unit class,
  latency, cache behaviour).

The special hint NOOP of the paper (section 3) is represented by
``Opcode.HINT`` with the requested issue-queue size in ``hint_value``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.isa.opcodes import (
    FuClass,
    Opcode,
    default_latency,
    fu_class,
    is_branch,
    is_control,
    is_memory,
)
from repro.isa.registers import Reg


_instruction_ids = itertools.count()


class InstructionKind(enum.Enum):
    """Coarse classification used by statistics and the workload generator."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RET = "ret"
    NOP = "nop"
    HINT = "hint"
    HALT = "halt"


_KIND_BY_OPCODE = {
    Opcode.MUL: InstructionKind.INT_MUL,
    Opcode.DIV: InstructionKind.INT_MUL,
    Opcode.LOAD: InstructionKind.LOAD,
    Opcode.STORE: InstructionKind.STORE,
    Opcode.BEQZ: InstructionKind.BRANCH,
    Opcode.BNEZ: InstructionKind.BRANCH,
    Opcode.JUMP: InstructionKind.JUMP,
    Opcode.CALL: InstructionKind.CALL,
    Opcode.RET: InstructionKind.RET,
    Opcode.NOP: InstructionKind.NOP,
    Opcode.HINT: InstructionKind.HINT,
    Opcode.HALT: InstructionKind.HALT,
    Opcode.FADD: InstructionKind.FP,
    Opcode.FSUB: InstructionKind.FP,
    Opcode.FMUL: InstructionKind.FP,
    Opcode.FDIV: InstructionKind.FP,
}


@dataclass
class Instruction:
    """A single static IR instruction.

    Attributes:
        opcode: the operation performed.
        dests: destination registers written by the instruction.
        srcs: source registers read by the instruction.
        imm: immediate operand.  For memory operations this is the address
            offset added to the base register; for ``LI`` it is the value
            loaded; for shifts it is the shift amount when no register
            source is supplied.
        target: label of the branch/jump target basic block (within the
            enclosing procedure) for control transfers, or ``None``.
        call_target: name of the called procedure for ``CALL``.
        hint_value: issue-queue size carried by a ``HINT`` NOOP.
        iq_tag: issue-queue size attached to a regular instruction by the
            Extension/Improved encodings (``None`` when untagged).
        uid: globally unique static instruction id, assigned at creation.
        comment: free-form annotation used by examples and debug dumps.
    """

    opcode: Opcode
    dests: tuple[Reg, ...] = ()
    srcs: tuple[Reg, ...] = ()
    imm: int = 0
    target: Optional[str] = None
    call_target: Optional[str] = None
    hint_value: Optional[int] = None
    iq_tag: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_instruction_ids))
    comment: str = ""

    def __post_init__(self) -> None:
        self.dests = tuple(self.dests)
        self.srcs = tuple(self.srcs)
        if self.opcode is Opcode.HINT and self.hint_value is None:
            raise ValueError("HINT instructions must carry a hint_value")
        if self.opcode is Opcode.CALL and not self.call_target:
            raise ValueError("CALL instructions must name a call_target")
        if is_branch(self.opcode) and self.target is None:
            raise ValueError("conditional branches must name a target block")

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def kind(self) -> InstructionKind:
        """Coarse instruction class."""
        return _KIND_BY_OPCODE.get(self.opcode, InstructionKind.INT_ALU)

    @property
    def fu_class(self) -> FuClass:
        """Functional-unit class the instruction executes on."""
        return fu_class(self.opcode)

    @property
    def latency(self) -> int:
        """Execution latency in cycles, excluding cache effects."""
        return default_latency(self.opcode)

    @property
    def is_branch(self) -> bool:
        """True for conditional branches."""
        return is_branch(self.opcode)

    @property
    def is_control(self) -> bool:
        """True for any control-flow instruction."""
        return is_control(self.opcode)

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return is_memory(self.opcode)

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_hint(self) -> bool:
        """True for the paper's special NOOP."""
        return self.opcode is Opcode.HINT

    @property
    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    @property
    def is_return(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_halt(self) -> bool:
        return self.opcode is Opcode.HALT

    @property
    def occupies_iq(self) -> bool:
        """True when the instruction is dispatched into the issue queue.

        Hint NOOPs are stripped in the final decode stage (section 3) and
        plain NOPs are squashed at decode, so neither occupies an IQ entry.
        """
        return self.opcode not in (Opcode.HINT, Opcode.NOP)

    # ------------------------------------------------------------------
    # Pretty-printing
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands: list[str] = [str(reg) for reg in self.dests]
        operands.extend(str(reg) for reg in self.srcs)
        if self.opcode is Opcode.LI or (self.imm and not self.is_memory):
            operands.append(str(self.imm))
        if self.is_memory:
            base = self.srcs[0] if self.srcs else "?"
            operands = [str(reg) for reg in self.dests]
            if self.is_store:
                operands = [str(reg) for reg in self.srcs[1:]]
            operands.append(f"[{base}+{self.imm}]")
        if self.target is not None:
            operands.append(self.target)
        if self.call_target is not None:
            operands.append(self.call_target)
        if self.hint_value is not None:
            operands.append(f"iq={self.hint_value}")
        text = f"{parts[0]} " + ", ".join(operands)
        if self.iq_tag is not None:
            text += f"  ; tag iq={self.iq_tag}"
        return text.strip()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Instruction #{self.uid} {self}>"

    def clone(self) -> "Instruction":
        """A shallow copy, ``uid`` included, with no validation.

        Copied field by field: reading an instance's ``__dict__`` (as
        ``copy.copy`` does) turns its attribute storage into a dictionary
        for good, in the original and the copy, and CPython then reads
        every attribute of either more slowly.
        """
        clone = object.__new__(Instruction)
        clone.opcode = self.opcode
        clone.dests = self.dests
        clone.srcs = self.srcs
        clone.imm = self.imm
        clone.target = self.target
        clone.call_target = self.call_target
        clone.hint_value = self.hint_value
        clone.iq_tag = self.iq_tag
        clone.uid = self.uid
        clone.comment = self.comment
        return clone

    # ------------------------------------------------------------------
    # Construction helpers used by the workload generator and tests
    # ------------------------------------------------------------------
    @classmethod
    def alu(
        cls,
        opcode: Opcode,
        dest: Reg,
        srcs: Sequence[Reg],
        imm: int = 0,
        comment: str = "",
    ) -> "Instruction":
        """Build an ALU-style instruction (``dest = op(srcs, imm)``)."""
        return cls(opcode=opcode, dests=(dest,), srcs=tuple(srcs), imm=imm, comment=comment)

    @classmethod
    def load_imm(cls, dest: Reg, value: int, comment: str = "") -> "Instruction":
        """Build ``dest = value``."""
        return cls(opcode=Opcode.LI, dests=(dest,), imm=value, comment=comment)

    @classmethod
    def load(cls, dest: Reg, base: Reg, offset: int = 0, comment: str = "") -> "Instruction":
        """Build ``dest = memory[base + offset]``."""
        return cls(opcode=Opcode.LOAD, dests=(dest,), srcs=(base,), imm=offset, comment=comment)

    @classmethod
    def store(cls, value: Reg, base: Reg, offset: int = 0, comment: str = "") -> "Instruction":
        """Build ``memory[base + offset] = value``."""
        return cls(opcode=Opcode.STORE, srcs=(base, value), imm=offset, comment=comment)

    @classmethod
    def branch_eqz(cls, src: Reg, target: str, comment: str = "") -> "Instruction":
        """Build ``if src == 0 goto target``."""
        return cls(opcode=Opcode.BEQZ, srcs=(src,), target=target, comment=comment)

    @classmethod
    def branch_nez(cls, src: Reg, target: str, comment: str = "") -> "Instruction":
        """Build ``if src != 0 goto target``."""
        return cls(opcode=Opcode.BNEZ, srcs=(src,), target=target, comment=comment)

    @classmethod
    def jump(cls, target: str, comment: str = "") -> "Instruction":
        """Build an unconditional jump to ``target``."""
        return cls(opcode=Opcode.JUMP, target=target, comment=comment)

    @classmethod
    def call(cls, proc_name: str, comment: str = "") -> "Instruction":
        """Build a call to procedure ``proc_name``."""
        return cls(opcode=Opcode.CALL, call_target=proc_name, comment=comment)

    @classmethod
    def ret(cls, comment: str = "") -> "Instruction":
        """Build a procedure return."""
        return cls(opcode=Opcode.RET, comment=comment)

    @classmethod
    def halt(cls) -> "Instruction":
        """Build the program-terminating instruction."""
        return cls(opcode=Opcode.HALT)

    @classmethod
    def hint(cls, iq_entries: int) -> "Instruction":
        """Build the paper's special NOOP carrying an IQ-size request."""
        return cls(opcode=Opcode.HINT, hint_value=iq_entries)
