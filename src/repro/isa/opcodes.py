"""Opcodes, functional-unit classes and latencies for the IR.

The operation mix mirrors the integer-dominated SPECint2000 workloads the
paper evaluates: integer ALU operations, integer multiplies, loads, stores,
conditional branches, unconditional jumps, calls and returns.  A small
floating-point subset exists for completeness (the paper's processor has FP
units, table 1) but the synthetic workloads use it sparingly, matching the
paper's observation that SPECint executes few FP instructions.

Latencies follow table 1 of the paper:

* integer ALU: 1 cycle (6 units)
* integer multiply: 3 cycles (3 units)
* FP ALU: 2 cycles (4 units)
* FP multiply: 4 cycles, FP divide: 12 cycles (2 units)
* loads: 1 cycle address generation plus the data-cache access time
  (2-cycle L1 hit in table 1), modelled by the memory hierarchy in
  :mod:`repro.uarch.cache`.

:data:`OPCODE_DECODE` gathers what an opcode fixes about an instruction
(classification flags, latency, functional-unit ordinal) under the
opcode's value, so the simulator's static table and the compiler's
decode both read it with one plain-string lookup.
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Every operation the IR supports."""

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    CMP_LT = "cmplt"
    CMP_EQ = "cmpeq"
    MOV = "mov"
    LI = "li"  # load immediate

    # Integer multiply / divide (separate FU class).
    MUL = "mul"
    DIV = "div"

    # Memory.
    LOAD = "load"
    STORE = "store"

    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"

    # Control flow.
    BEQZ = "beqz"  # branch if register == 0
    BNEZ = "bnez"  # branch if register != 0
    JUMP = "jump"
    CALL = "call"
    RET = "ret"
    HALT = "halt"

    # No-ops.
    NOP = "nop"
    HINT = "hint"  # the paper's special NOOP carrying an IQ-size payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


class FuClass(enum.Enum):
    """Functional-unit classes, matching table 1 of the paper."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    FP_ALU = "fp_alu"
    FP_MULDIV = "fp_muldiv"
    MEM_PORT = "mem_port"
    NONE = "none"  # control/no-op instructions needing no execution resource

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FuClass.{self.name}"


_INT_ALU_OPS = frozenset(
    {
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
    }
)

# Tuples, not sets: a membership test then compares members by identity
# and never calls the Python-level ``Enum.__hash__``.
_BRANCH_OPS = (Opcode.BEQZ, Opcode.BNEZ)
_CONTROL_OPS = (Opcode.BEQZ, Opcode.BNEZ, Opcode.JUMP, Opcode.CALL, Opcode.RET, Opcode.HALT)
_MEMORY_OPS = (Opcode.LOAD, Opcode.STORE)


#: Functional-unit class needed by each opcode.
OPCODE_FU_CLASS: dict[Opcode, FuClass] = {}
for _op in _INT_ALU_OPS:
    OPCODE_FU_CLASS[_op] = FuClass.INT_ALU
OPCODE_FU_CLASS[Opcode.MUL] = FuClass.INT_MUL
OPCODE_FU_CLASS[Opcode.DIV] = FuClass.INT_MUL
OPCODE_FU_CLASS[Opcode.LOAD] = FuClass.MEM_PORT
OPCODE_FU_CLASS[Opcode.STORE] = FuClass.MEM_PORT
OPCODE_FU_CLASS[Opcode.FADD] = FuClass.FP_ALU
OPCODE_FU_CLASS[Opcode.FSUB] = FuClass.FP_ALU
OPCODE_FU_CLASS[Opcode.FMUL] = FuClass.FP_MULDIV
OPCODE_FU_CLASS[Opcode.FDIV] = FuClass.FP_MULDIV
# Branches and compares execute on the integer ALUs, as in SimpleScalar.
OPCODE_FU_CLASS[Opcode.BEQZ] = FuClass.INT_ALU
OPCODE_FU_CLASS[Opcode.BNEZ] = FuClass.INT_ALU
OPCODE_FU_CLASS[Opcode.JUMP] = FuClass.NONE
OPCODE_FU_CLASS[Opcode.CALL] = FuClass.NONE
OPCODE_FU_CLASS[Opcode.RET] = FuClass.NONE
OPCODE_FU_CLASS[Opcode.HALT] = FuClass.NONE
OPCODE_FU_CLASS[Opcode.NOP] = FuClass.NONE
OPCODE_FU_CLASS[Opcode.HINT] = FuClass.NONE


#: Execution latency in cycles for each opcode (table 1).  Loads carry the
#: address-generation latency here; the cache adds the access time.
OPCODE_LATENCY: dict[Opcode, int] = {}
for _op in _INT_ALU_OPS:
    OPCODE_LATENCY[_op] = 1
OPCODE_LATENCY[Opcode.MUL] = 3
OPCODE_LATENCY[Opcode.DIV] = 12
OPCODE_LATENCY[Opcode.LOAD] = 1
OPCODE_LATENCY[Opcode.STORE] = 1
OPCODE_LATENCY[Opcode.FADD] = 2
OPCODE_LATENCY[Opcode.FSUB] = 2
OPCODE_LATENCY[Opcode.FMUL] = 4
OPCODE_LATENCY[Opcode.FDIV] = 12
OPCODE_LATENCY[Opcode.BEQZ] = 1
OPCODE_LATENCY[Opcode.BNEZ] = 1
OPCODE_LATENCY[Opcode.JUMP] = 1
OPCODE_LATENCY[Opcode.CALL] = 1
OPCODE_LATENCY[Opcode.RET] = 1
OPCODE_LATENCY[Opcode.HALT] = 1
OPCODE_LATENCY[Opcode.NOP] = 1
OPCODE_LATENCY[Opcode.HINT] = 1


def is_branch(opcode: Opcode) -> bool:
    """Return True for conditional branches."""
    return opcode in _BRANCH_OPS


def is_control(opcode: Opcode) -> bool:
    """Return True for any control-flow instruction (branch, jump, call, ret, halt)."""
    return opcode in _CONTROL_OPS


def is_memory(opcode: Opcode) -> bool:
    """Return True for loads and stores."""
    return opcode in _MEMORY_OPS


def is_int_alu(opcode: Opcode) -> bool:
    """Return True for single-cycle integer ALU operations."""
    return opcode in _INT_ALU_OPS


def default_latency(opcode: Opcode) -> int:
    """Return the execution latency of ``opcode`` in cycles."""
    return OPCODE_LATENCY[opcode]


def fu_class(opcode: Opcode) -> FuClass:
    """Return the functional-unit class ``opcode`` executes on."""
    return OPCODE_FU_CLASS[opcode]


#: Ordinal of each functional-unit class, its position in :class:`FuClass`:
#: the index of the class in flat per-class arrays (the simulator's FU
#: pool, the native kernel's limits, the compiler's issue limits).
FU_INDEX: dict[FuClass, int] = {fu: index for index, fu in enumerate(FuClass)}

# Per-opcode classification flags, one bit each.
F_HINT = 1
F_NOP = 2
F_BRANCH = 4
F_CALL = 8
F_RET = 16
F_LOAD = 32
F_STORE = 64
#: Any instruction that must consult the branch predictor at fetch.
F_CONTROL = F_BRANCH | F_CALL | F_RET


def _opcode_decode(opcode: Opcode) -> tuple[int, int, int]:
    """``(flags, latency, fu_ordinal)``: the part of a decode fixed by the opcode."""
    flags = 0
    if opcode is Opcode.HINT:
        flags |= F_HINT
    if opcode is Opcode.NOP:
        flags |= F_NOP
    if is_branch(opcode):
        flags |= F_BRANCH
    if opcode is Opcode.CALL:
        flags |= F_CALL
    if opcode is Opcode.RET:
        flags |= F_RET
    if opcode is Opcode.LOAD:
        flags |= F_LOAD
    if opcode is Opcode.STORE:
        flags |= F_STORE
    return flags, default_latency(opcode), FU_INDEX[fu_class(opcode)]


#: :func:`_opcode_decode` for every opcode, keyed by its value, so
#: decoding an instruction costs one lookup of a string rather than a
#: dozen property calls that each hash an enum.
OPCODE_DECODE: dict[str, tuple[int, int, int]] = {
    opcode._value_: _opcode_decode(opcode) for opcode in Opcode
}
