"""Hint emission: special NOOP insertion and instruction tagging.

Once the analysis has decided how many issue-queue entries each region
needs, the value must reach the processor.  The paper evaluates two
encodings (sections 3 and 5.3):

* ``"noop"`` -- a special NOOP carrying the value is inserted into the
  instruction stream.  It flows through fetch and decode (consuming
  bandwidth, which is the scheme's main cost) and is stripped before
  dispatch.
* ``"extension"`` / ``"improved"`` -- the value is carried in redundant bits
  of an ordinary instruction, so no bandwidth is lost.

Placement:

* DAG blocks receive their hint at the **start of the block** (the region
  "until the next special NOOP" is the block itself).
* Loops receive a single hint **before the loop is entered** -- at the end
  of each predecessor of the header that lies outside the loop -- so the
  pipelined-loop requirement governs every in-flight iteration instead of
  being re-issued each iteration.
* Library calls request the maximum queue size immediately before the call
  (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CompilerConfig
from repro.core.dag_analysis import BlockRequirement
from repro.isa.encoding import make_hint_noop, tag_instruction
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import BasicBlock, Procedure, Program


#: Encoding modes accepted by :func:`instrument_program`.
NOOP_MODE = "noop"
TAG_MODES = ("extension", "improved")
ALL_MODES = (NOOP_MODE,) + TAG_MODES


@dataclass
class InstrumentationStats:
    """Bookkeeping about what the instrumenter emitted.

    Attributes:
        hints_inserted: number of special NOOPs inserted (NOOP mode).
        instructions_tagged: number of ordinary instructions tagged
            (Extension/Improved modes).
        library_call_hints: hints emitted for library-call sites.
        hints_skipped_redundant: hints elided because the fall-through
            predecessor already requested the same value.
        by_procedure: hints emitted per procedure.
    """

    hints_inserted: int = 0
    instructions_tagged: int = 0
    library_call_hints: int = 0
    hints_skipped_redundant: int = 0
    by_procedure: dict[str, int] = field(default_factory=dict)

    @property
    def total_hints(self) -> int:
        """All hints emitted, regardless of encoding."""
        return self.hints_inserted + self.instructions_tagged


def _previous_block_value(
    program: Program,
    procedure_name: str,
    block_index: int,
    block_hints: dict[tuple[str, str], int],
) -> int | None:
    """Hint value of the immediately preceding block when it falls through."""
    if block_index == 0:
        return None
    procedure = program.procedures[procedure_name]
    previous = procedure.blocks[block_index - 1]
    if previous.terminator is not None and not previous.falls_through:
        return None
    return block_hints.get((procedure_name, previous.label))


def _emit_at_block_start(
    block: BasicBlock, value: int, use_tags: bool, stats: InstrumentationStats
) -> bool:
    """Attach ``value`` to the start of ``block``; return True if emitted."""
    if use_tags:
        first = next((instr for instr in block.instructions if not instr.is_hint), None)
        if first is None:
            return False
        if first.iq_tag is None:
            tag_instruction(first, value)
            stats.instructions_tagged += 1
            return True
        return False
    block.instructions.insert(0, make_hint_noop(value))
    stats.hints_inserted += 1
    return True


def _emit_at_block_end(
    block: BasicBlock, value: int, use_tags: bool, stats: InstrumentationStats
) -> bool:
    """Attach ``value`` just before ``block``'s terminator (loop pre-headers)."""
    if use_tags:
        # Tag the terminator (or the last instruction) so the value takes
        # effect immediately before control enters the loop.
        target = block.instructions[-1] if block.instructions else None
        if target is None or target.is_hint:
            return False
        if target.iq_tag is None:
            tag_instruction(target, value)
            stats.instructions_tagged += 1
            return True
        # Already tagged (e.g. by its own block hint): prefer the larger
        # request so the loop is not starved.
        target.iq_tag = max(target.iq_tag, value)
        return True
    position = len(block.instructions)
    if block.terminator is not None:
        position -= 1
    block.instructions.insert(position, make_hint_noop(value))
    stats.hints_inserted += 1
    return True


def _structural_copy(program: Program) -> Program:
    """A copy of ``program`` sharing no mutable object with it.

    Programs, procedures and blocks are new containers and every
    instruction is a shallow copy (:meth:`Instruction.clone`, not the
    ``copy`` module).  What the copies still share is immutable: operand
    tuples of frozen registers, strings and ints.
    """
    clone = Instruction.clone
    return Program(
        name=program.name,
        procedures={
            name: Procedure(
                name=procedure.name,
                blocks=[
                    BasicBlock(
                        label=block.label,
                        instructions=list(map(clone, block.instructions)),
                    )
                    for block in procedure.blocks
                ],
                is_library=procedure.is_library,
            )
            for name, procedure in program.procedures.items()
        },
        entry=program.entry,
    )


def instrument_program(
    program: Program,
    requirements: dict[tuple[str, str], BlockRequirement],
    config: CompilerConfig,
    mode: str = NOOP_MODE,
    preheader_hints: dict[tuple[str, str], int] | None = None,
) -> tuple[Program, InstrumentationStats]:
    """Return an instrumented copy of ``program`` plus emission statistics.

    The copy is structural (:func:`_structural_copy`): new containers and
    instructions, so emission inserts and tags without touching
    ``program``, and two copies of one program share nothing mutable.

    Args:
        program: the original program; never modified.
        requirements: mapping from (procedure, block label) to the block's
            requirement.  Entries with ``source == "loop"`` are *not* placed
            at the block itself; they are expressed through
            ``preheader_hints``.
        config: compiler configuration (used for the library-call maximum).
        mode: ``"noop"``, ``"extension"`` or ``"improved"``.
        preheader_hints: mapping from (procedure, block label) to a value to
            emit at the end of that block, i.e. immediately before entering
            a loop.
    """
    if mode not in ALL_MODES:
        raise ValueError(f"unknown instrumentation mode {mode!r}")

    instrumented = _structural_copy(program)
    stats = InstrumentationStats()
    use_tags = mode in TAG_MODES
    preheader_hints = dict(preheader_hints or {})
    libraries = {
        name for name, procedure in program.procedures.items() if procedure.is_library
    }

    block_start_hints: dict[tuple[str, str], int] = {
        key: req.entries
        for key, req in requirements.items()
        if req.source == "dag"
    }

    for procedure in instrumented.analysable_procedures():
        emitted = 0
        for block_index, block in enumerate(procedure.blocks):
            key = (procedure.name, block.label)

            start_value = block_start_hints.get(key)
            if start_value is not None:
                previous_value = _previous_block_value(
                    instrumented, procedure.name, block_index, block_start_hints
                )
                if previous_value == start_value:
                    stats.hints_skipped_redundant += 1
                elif _emit_at_block_start(block, start_value, use_tags, stats):
                    emitted += 1

            emitted += _instrument_library_calls(
                libraries, block, config, use_tags, stats
            )

            end_value = preheader_hints.get(key)
            if end_value is not None:
                if _emit_at_block_end(block, end_value, use_tags, stats):
                    emitted += 1
        stats.by_procedure[procedure.name] = emitted

    return instrumented, stats


def _instrument_library_calls(
    libraries: set[str],
    block: BasicBlock,
    config: CompilerConfig,
    use_tags: bool,
    stats: InstrumentationStats,
) -> int:
    """Emit a maximum-size request before every call in ``block`` to a
    procedure named in ``libraries``."""
    instructions = block.instructions
    calls = [
        index
        for index, instr in enumerate(instructions)
        if instr.opcode is Opcode.CALL and instr.call_target in libraries
    ]
    emitted = 0
    # Back to front, so an inserted hint moves no call still to come.
    for index in reversed(calls):
        if use_tags:
            instr = instructions[index]
            if instr.iq_tag is None:
                tag_instruction(instr, config.max_iq_entries)
                stats.instructions_tagged += 1
                stats.library_call_hints += 1
                emitted += 1
        else:
            instructions.insert(index, make_hint_noop(config.max_iq_entries))
            stats.hints_inserted += 1
            stats.library_call_hints += 1
            emitted += 1
    return emitted
