"""Static program containers: basic blocks, procedures and whole programs.

A :class:`Program` is the unit the compiler pass (:mod:`repro.core`)
analyses and the simulator (:mod:`repro.uarch`) executes.  Control flow is
expressed structurally: each basic block ends with at most one control-flow
instruction whose ``target`` names another block in the same procedure;
otherwise execution falls through to the next block in procedure order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


class ProgramError(Exception):
    """Raised for malformed programs (dangling targets, missing entry, ...)."""


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions with a single entry point.

    Attributes:
        label: block name, unique within its procedure.
        instructions: the instructions in program order.
    """

    label: str
    instructions: list[Instruction] = field(default_factory=list)

    def append(self, instruction: Instruction) -> Instruction:
        """Append ``instruction`` and return it (convenient for builders)."""
        self.instructions.append(instruction)
        return instruction

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append every instruction from ``instructions``."""
        self.instructions.extend(instructions)

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final control-flow instruction, if the block ends with one."""
        if self.instructions and self.instructions[-1].is_control:
            return self.instructions[-1]
        return None

    @property
    def falls_through(self) -> bool:
        """True when execution can continue into the next block in order."""
        term = self.terminator
        if term is None:
            return True
        # Conditional branches fall through on the not-taken path; jumps,
        # returns and halts never fall through.  Calls resume at the next
        # instruction so a block ending in a call falls through.
        return term.is_branch or term.is_call

    def non_hint_instructions(self) -> list[Instruction]:
        """Instructions excluding hint NOOPs (what actually occupies the IQ)."""
        return [instr for instr in self.instructions if not instr.is_hint]

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"    {instr}" for instr in self.instructions)
        return "\n".join(lines)


@dataclass
class Procedure:
    """A procedure: an ordered list of basic blocks with a single entry.

    Attributes:
        name: procedure name, unique within the program.
        blocks: basic blocks in layout order; the first block is the entry.
        is_library: True for library routines.  The paper does not analyse
            library code: before a library call the IQ is allowed to grow to
            its maximum size (section 4.4), and the compiler pass skips the
            body of library procedures.
    """

    name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    is_library: bool = False

    def add_block(self, label: str) -> BasicBlock:
        """Create, append and return a new basic block named ``label``."""
        if self.find_block(label) is not None:
            raise ProgramError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label=label)
        self.blocks.append(block)
        return block

    def find_block(self, label: str) -> Optional[BasicBlock]:
        """Return the block named ``label`` or ``None``."""
        for block in self.blocks:
            if block.label == label:
                return block
        return None

    def block_index(self, label: str) -> int:
        """Return the layout index of the block named ``label``."""
        for index, block in enumerate(self.blocks):
            if block.label == label:
                return index
        raise ProgramError(f"no block named {label!r} in procedure {self.name}")

    @property
    def entry_block(self) -> BasicBlock:
        """The procedure's entry block (the first block in layout order)."""
        if not self.blocks:
            raise ProgramError(f"procedure {self.name} has no blocks")
        return self.blocks[0]

    def instructions(self) -> Iterator[Instruction]:
        """Iterate over every instruction in layout order."""
        for block in self.blocks:
            yield from block.instructions

    @property
    def num_instructions(self) -> int:
        """Total static instruction count."""
        return sum(len(block) for block in self.blocks)

    def validate(self, procedures: Container[str]) -> None:
        """Check structural invariants: labels are unique, branch targets
        resolve and every call names one of the program's ``procedures``.
        One walk over the instructions checks both."""
        labels = [block.label for block in self.blocks]
        if len(labels) != len(set(labels)):
            raise ProgramError(f"duplicate block labels in procedure {self.name}")
        label_set = set(labels)
        call = Opcode.CALL
        for block in self.blocks:
            for instr in block.instructions:
                if instr.target is not None and instr.target not in label_set:
                    raise ProgramError(
                        f"instruction {instr} in {self.name}/{block.label} targets "
                        f"unknown block {instr.target!r}"
                    )
                if instr.opcode is call and instr.call_target not in procedures:
                    raise ProgramError(
                        f"call to unknown procedure {instr.call_target!r} in {self.name}"
                    )

    def __str__(self) -> str:
        header = f"proc {self.name}{' (library)' if self.is_library else ''}:"
        return "\n".join([header] + [str(block) for block in self.blocks])


@dataclass
class Program:
    """A whole program: procedures plus the name of the entry procedure.

    Attributes:
        name: program name (e.g. the synthetic benchmark name).
        procedures: mapping from procedure name to procedure.
        entry: name of the procedure execution starts in.
    """

    name: str
    procedures: dict[str, Procedure] = field(default_factory=dict)
    entry: str = "main"

    def add_procedure(self, procedure: Procedure) -> Procedure:
        """Register ``procedure`` and return it."""
        if procedure.name in self.procedures:
            raise ProgramError(f"duplicate procedure name {procedure.name!r}")
        self.procedures[procedure.name] = procedure
        return procedure

    def new_procedure(self, name: str, is_library: bool = False) -> Procedure:
        """Create, register and return an empty procedure named ``name``."""
        return self.add_procedure(Procedure(name=name, is_library=is_library))

    @property
    def entry_procedure(self) -> Procedure:
        """The procedure execution starts in."""
        try:
            return self.procedures[self.entry]
        except KeyError as exc:
            raise ProgramError(f"program {self.name} has no entry procedure {self.entry!r}") from exc

    def analysable_procedures(self) -> list[Procedure]:
        """Procedures the compiler pass analyses (everything except libraries)."""
        return [proc for proc in self.procedures.values() if not proc.is_library]

    @property
    def num_instructions(self) -> int:
        """Total static instruction count across all procedures."""
        return sum(proc.num_instructions for proc in self.procedures.values())

    @property
    def num_basic_blocks(self) -> int:
        """Total basic-block count across all procedures."""
        return sum(len(proc.blocks) for proc in self.procedures.values())

    def validate(self) -> None:
        """Check whole-program invariants (entry exists, calls resolve, blocks valid)."""
        if self.entry not in self.procedures:
            raise ProgramError(f"program {self.name} has no entry procedure {self.entry!r}")
        for proc in self.procedures.values():
            proc.validate(self.procedures)

    def count_opcode(self, opcode: Opcode) -> int:
        """Count static occurrences of ``opcode`` across the whole program."""
        return sum(
            1
            for proc in self.procedures.values()
            for instr in proc.instructions()
            if instr.opcode is opcode
        )

    def __str__(self) -> str:
        return "\n\n".join(str(proc) for proc in self.procedures.values())
