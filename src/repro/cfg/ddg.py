"""Instruction decode and data dependences on integer operand slots.

The compiler's DAG analysis (section 4.2) and loop analysis (section 4.3)
both schedule over the data dependences of an instruction sequence, which
is either a basic block, a DAG region in layout order, or a loop body.
Both read one per-instruction :class:`Decode`: classification flags,
the latency the compiler assumes, the functional-unit ordinal, and every
register operand as an integer *slot* (``index + 32 * is_fp``), so the
analyses index flat arrays and never hash a register or an enum.

Loop-carried register dependences (distance 1) are included when requested:
if an instruction reads a register with no earlier writer in the current
iteration, but some instruction in the body writes it, the dependence comes
from the previous iteration.  Memory dependences are handled conservatively:
every load or store depends on the nearest preceding store (no alias
analysis), matching the paper's conservative treatment of memory.  Register
0 of the integer file is hard-wired to zero, so it carries no dependence.
``tests/test_properties.py`` keeps a dependence builder keyed by register
objects as the oracle for :func:`dependences`.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

from repro.isa.instruction import Instruction
from repro.isa.opcodes import F_HINT, F_LOAD, F_NOP, F_STORE, OPCODE_DECODE
from repro.isa.registers import NUM_ARCH_REGS, NUM_FP_ARCH_REGS, Reg, fp_reg, int_reg

#: Slots in use: the integer registers, then the floating-point ones.
SLOT_COUNT = NUM_ARCH_REGS + NUM_FP_ARCH_REGS

#: The register each slot names.
SLOT_REGS: tuple[Reg, ...] = tuple(map(int_reg, range(NUM_ARCH_REGS))) + tuple(
    map(fp_reg, range(NUM_FP_ARCH_REGS))
)


def slot(reg: Reg) -> int:
    """The integer slot of ``reg``: its index, plus 32 for an FP register."""
    return reg.index + NUM_ARCH_REGS * reg.is_fp


class Decode(NamedTuple):
    """What the compiler's analyses read of one instruction.

    Attributes:
        flags: the opcode's ``F_*`` classification bits.
        latency: cycles the compiler assumes before a consumer may issue:
            the opcode's latency, plus the assumed L1 hit time for a load.
        fu: functional-unit ordinal (``FU_INDEX``).
        srcs: every source slot, in operand order.
        dests: every destination slot, in operand order.
        reads: the source slots that carry a dependence (no ``r0``).
        writes: the destination slots that carry a dependence (no ``r0``).
    """

    flags: int
    latency: int
    fu: int
    srcs: tuple[int, ...]
    dests: tuple[int, ...]
    reads: tuple[int, ...]
    writes: tuple[int, ...]


@functools.lru_cache(maxsize=4096)
def _decode(opcode: str, srcs: tuple, dests: tuple, load_latency: int) -> Decode:
    """The :class:`Decode` of an opcode's value and operand slots.

    Memoised on those plain values, never on an instruction object
    (programs may be mutated in place); their hashes run no Python code,
    and the suite's programs repeat few distinct decodes.
    """
    flags, latency, fu = OPCODE_DECODE[opcode]
    if flags & F_LOAD:
        latency += load_latency
    return Decode(
        flags,
        latency,
        fu,
        srcs,
        dests,
        tuple([index for index in srcs if index]),
        tuple([index for index in dests if index]),
    )


def decode(instruction: Instruction, load_latency: int = 0) -> Decode:
    """The :class:`Decode` of ``instruction``, with loads charged
    ``load_latency`` cycles beyond their own latency."""
    return _decode(
        instruction.opcode._value_,
        tuple([reg.index + NUM_ARCH_REGS * reg.is_fp for reg in instruction.srcs]),
        tuple([reg.index + NUM_ARCH_REGS * reg.is_fp for reg in instruction.dests]),
        load_latency,
    )


#: Flags of the instructions that never occupy an issue-queue entry: hint
#: NOOPs are stripped at decode (section 3) and plain NOPs squashed.
_NO_IQ = F_HINT | F_NOP


def decode_iq(instructions: Iterable[Instruction], load_latency: int = 0) -> list[Decode]:
    """The decodes of the instructions that occupy an issue-queue entry,
    in order."""
    return [
        decoded
        for decoded in (decode(instruction, load_latency) for instruction in instructions)
        if not decoded.flags & _NO_IQ
    ]


def dependences(work: Sequence[Decode], loop_carried: bool = False) -> list[tuple[int, int, int]]:
    """Every dependence of ``work`` as ``(producer, consumer, distance)``.

    Within the iteration (distance 0) a consumer depends on the last
    earlier writer of each register it reads, and a load or store on the
    last earlier store; an edge repeats when a consumer reads one
    producer's value twice.  With ``loop_carried``, a read with no earlier
    writer in the iteration depends on the body's last writer of that
    register, and a load or store before the body's first store on its
    last store, at distance 1.
    """
    edges: list[tuple[int, int, int]] = []
    last_writer = [-1] * SLOT_COUNT
    last_store = -1
    for index, (flags, _, _, _, _, reads, writes) in enumerate(work):
        for read in reads:
            writer = last_writer[read]
            if writer >= 0:
                edges.append((writer, index, 0))
        if flags & (F_LOAD | F_STORE) and last_store >= 0:
            edges.append((last_store, index, 0))
        for write in writes:
            last_writer[write] = index
        if flags & F_STORE:
            last_store = index
    if not loop_carried:
        return edges

    written = [False] * SLOT_COUNT
    seen_store = False
    for index, (flags, _, _, _, _, reads, writes) in enumerate(work):
        for read in reads:
            if not written[read] and last_writer[read] >= 0:
                # No writer earlier in this iteration: the value comes from
                # the previous iteration's final writer.
                edges.append((last_writer[read], index, 1))
        if flags & (F_LOAD | F_STORE) and not seen_store and last_store >= 0:
            edges.append((last_store, index, 1))
        for write in writes:
            written[write] = True
        if flags & F_STORE:
            seen_store = True
    return edges
