"""The trace shape both replay kernels share: compact columns plus a static table.

The timing core is trace-driven, and the committed dynamic instruction
stream is a pure function of (program, instruction budget): no timing
decision ever feeds back into architectural state.  This module runs the
functional emulator **once** per benchmark and budget and keeps only what
the emulation decided, as four compact columns (:class:`TraceWindow`,
25 bytes per dynamic instruction): ``pc``, ``next_pc`` and ``mem`` as
``array('q')`` and ``taken`` as a ``bytearray``.  Everything fixed by
the static instruction — classification flags, execution latency,
functional-unit ordinal, issue-queue tag, hint payload and rename
operand spec — lives once per *program* in a :class:`StaticTable`,
one row per static in the order :class:`~repro.uarch.emulator.ProgramLayout`
assigns their pcs (consecutive 4-byte PCs from
:data:`~repro.uarch.emulator.CODE_BASE`), so an entry's static row is
``(pc - CODE_BASE) >> 2``: no per-entry decode, gather or object exists.
A program's table and its content digests come from one walk of it
(:func:`_program_record`).
Both kernels read each fetched entry's row through that index with a
bounds check (a misaligned pc, or one outside the table, raises
``ValueError``).

A replay reads the whole trace as one window of columns, handed over
by a :class:`TraceWindowStream` that also carries the table: about
2.4 MiB at the figure grid's 100k instructions, the size of the columns
the memo and the disk cache hold anyway.

Hints leave architectural state alone by design, so every program of a
benchmark replays **one trace**, the uninstrumented program's:

* traces are keyed by the **emulation digest**, the program content
  without hint payloads and issue-queue tags (:class:`ProgramDigests`),
  so the tagged ``extension`` and ``improved`` programs share the
  baseline's trace while their static tables, keyed by the full
  :func:`program_digest`, still carry the tags to the kernels;
* a program with hint NOOPs replays the trace of the same program with
  its hints stripped (whose emulation digest is the baseline's), and
  its stream carries a :class:`HintMap` next to its own-layout table:
  for each stripped row, its own row and the runs of hints before it.
  Both kernels expand those hints at fetch, the budget counting them,
  so no hinted trace is ever built.

Three reuse tiers sit in front of the emulator:

1. an **in-process column memo** keyed by (emulation digest, budget),
   so every technique simulated against one benchmark shares its
   trace at every budget;
2. an optional **on-disk cache** (:class:`TraceCache`),
   content-addressed like :mod:`repro.harness.cache`: the key digests
   the emulation digest, the instruction budget and the source of the
   emulator and of this module, so editing the emulator or the
   trace layer (or regenerating a workload with different traits) can
   never resurrect a stale trace.  It stores exactly the columns;
3. **live emulation** (``live=True`` or the ``REPRO_LIVE_EMULATION``
   environment variable), which bypasses both tiers and emulates the
   program itself, hints included, with no map — the reference path
   the equivalence tests compare against.

On a miss the program is emulated whole before its replay starts (a
hinted program's map needs the trace's last entry anyway), the file is
stored once, and the memo keeps the emulator's own columns.

Module-level :data:`trace_events` counters record emulations, memo hits
and disk hits/misses/stores so tests can assert that a warm cache skips
re-emulation entirely.
"""

from __future__ import annotations

import array
import functools
import hashlib
import json
import marshal
import os
import struct
import sys
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.atomicio import EntryStore
from repro.isa.instruction import Instruction
# The kernels and tests read the classification flags from here, beside
# the static table that carries them.
from repro.isa.opcodes import (
    F_BRANCH,
    F_CALL,
    F_CONTROL,
    F_HINT,
    F_LOAD,
    F_NOP,
    F_RET,
    F_STORE,
    OPCODE_DECODE,
    Opcode,
)
from repro.uarch.emulator import CODE_BASE, DynamicInstruction, FunctionalEmulator

#: Bump when the on-disk payload layout changes.  Version 3: one header
#: of ``format``, ``length`` and ``byteorder``, then the four columns
#: whole.  Older files (version 1, monolithic; version 2, with a
#: per-window table) are misses and are re-emulated.
TRACE_FORMAT_VERSION = 3

#: Bytes per stored dynamic instruction: three ``int64`` columns (pc,
#: next_pc, mem_address) plus one taken byte.
_ENTRY_BYTES = 25

#: Counters for tests and reports: how often the emulator actually ran
#: versus how often an emulated trace was reused.
trace_events: dict[str, int] = {
    "emulations": 0,
    "memo_hits": 0,
    "disk_hits": 0,
    "disk_misses": 0,
    "disk_stores": 0,
}


def reset_trace_events() -> None:
    """Zero the :data:`trace_events` counters (test isolation)."""
    for key in trace_events:
        trace_events[key] = 0


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------
class TraceWindow(NamedTuple):
    """A trace's entries as four parallel columns, the one window a
    replay reads.

    ``pc``, ``next_pc`` and ``mem`` (effective address, 0 for
    non-memory entries) hold ``int64`` items (an ``array('q')``, or any
    buffer of them the kernels accept), ``taken`` one 0/1 byte per
    entry (a ``bytearray``).
    """

    pc: Any
    next_pc: Any
    mem: Any
    taken: Any

    @property
    def length(self) -> int:
        return len(self.taken)


def empty_columns() -> TraceWindow:
    """A fresh zero-length set of columns, ready to be extended."""
    return TraceWindow(
        array.array("q"), array.array("q"), array.array("q"), bytearray()
    )


# ----------------------------------------------------------------------
# The static table
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=4096)
def _row(opcode: str, srcs: tuple, dests: tuple, iq_tag, hint_value) -> tuple:
    """``(flags, latency, fu_ordinal, iq_tag, hint_value, rename_spec)``.

    Takes the fields of a static's :func:`_instruction_item`: the
    opcode's value and ``(index, is_fp)`` operand pairs.
    ``rename_spec`` is ``(int_srcs, fp_srcs, int_dests, fp_dests)``, the
    architectural register indices rename reads, so the kernels never
    touch ``Reg`` objects.  Memoised on those plain values, whose hashes
    run no Python code: the grid's 44 programs hold about 37k statics
    but under 800 distinct rows.
    """
    flags, latency, fu_ordinal = OPCODE_DECODE[opcode]
    return (
        flags,
        latency,
        fu_ordinal,
        iq_tag,
        0 if hint_value is None else hint_value,
        (
            tuple([index for index, is_fp in srcs if not is_fp]),
            tuple([index for index, is_fp in srcs if is_fp]),
            tuple([index for index, is_fp in dests if not is_fp]),
            tuple([index for index, is_fp in dests if is_fp]),
        ),
    )


def _instruction_item(instr: Instruction) -> tuple:
    """One static instruction as :func:`_program_content` records it:
    the opcode's value, the destination and source ``(index, is_fp)``
    pairs, the immediate, both control targets, the hint payload and the
    issue-queue tag."""
    return (
        instr.opcode._value_,
        tuple([(reg.index, reg.is_fp) for reg in instr.dests]),
        tuple([(reg.index, reg.is_fp) for reg in instr.srcs]),
        instr.imm,
        instr.target,
        instr.call_target,
        instr.hint_value,
        instr.iq_tag,
    )


#: The row of a pc below a table's last static that no static claims.
_FILLER_ROW = OPCODE_DECODE[Opcode.NOP._value_] + (None, 0, ((), (), (), ()))

#: One row as the native kernel reads it (``StaticRow`` in ``_native.c``):
#: iq_tag, hint payload, flags, latency, FU ordinal, a pad byte, the four
#: rename-spec operand counts, then four register slots per category.
_NATIVE_ROW = struct.Struct("=qqBBBx4B16B")

#: ``iq_tag`` of an untagged row in the native layout (``IQTAG_NONE``).
_NATIVE_NO_TAG = -(1 << 63)


@functools.lru_cache(maxsize=4096)
def _native_row(row: tuple) -> bytes:
    """One table row in the native kernel's byte layout (memoised like
    :func:`_row`: tables repeat few distinct rows)."""
    flags, latency, fu_ordinal, iq_tag, hint_value, spec = row
    counts = []
    regs = []
    for category in spec:
        if len(category) > 4:
            raise ValueError("native kernel supports at most 4 operands per category")
        counts.append(len(category))
        regs.extend(category)
        regs.extend([0] * (4 - len(category)))
    return _NATIVE_ROW.pack(
        _NATIVE_NO_TAG if iq_tag is None else iq_tag,
        hint_value,
        flags,
        latency,
        fu_ordinal,
        *counts,
        *regs,
    )


class StaticTable:
    """A program's static instructions, pre-decoded, indexed by layout PC.

    Row ``i`` describes the static instruction at ``base + 4 * i``.  Each
    attribute is one column with a value per row.

    Attributes:
        base: the pc of row 0, the layout's
            :data:`~repro.uarch.emulator.CODE_BASE`.
        flags: classification bits (``F_*`` constants), one byte per row.
        latency: base execution latency in cycles, one byte per row.
        fu: functional-unit class ordinal (``FU_ORDER`` index) per row.
        iq_tag: Extension/Improved issue-queue tag per row, or None.
        hint_value: hint-NOOP payload per row (0 for rows without one).
        rename_specs: ``(int_srcs, fp_srcs, int_dests, fp_dests)``
            architectural register index tuples per row.
    """

    base = CODE_BASE

    __slots__ = (
        "flags",
        "latency",
        "fu",
        "iq_tag",
        "hint_value",
        "rename_specs",
        "_rows",
        "_packed",
    )

    def __init__(self, rows: Sequence[tuple]):
        self._rows = rows
        self._packed: Optional[bytes] = None
        columns = tuple(zip(*rows)) or ((),) * 6
        flags, latency, fu, self.iq_tag, self.hint_value, self.rename_specs = columns
        self.flags = bytes(flags)
        self.latency = bytes(latency)
        self.fu = bytes(fu)

    @classmethod
    def from_statics(cls, statics: Mapping[int, Instruction]) -> "StaticTable":
        """The table of a pc → static mapping, each static at its pc's row.

        Rows run from the base to the highest pc; a row no static claims
        holds a plain NOP.  A pc that is misaligned or below the base
        raises ``ValueError``.
        """
        last = max(statics, default=cls.base - 4)
        rows = [_FILLER_ROW] * ((last - cls.base) // 4 + 1)
        for pc, instr in statics.items():
            offset = pc - cls.base
            if offset < 0 or offset & 3:
                raise ValueError(f"static pc {pc:#x} has no table row")
            opcode, dests, srcs, _, _, _, hint_value, iq_tag = _instruction_item(instr)
            rows[offset >> 2] = _row(opcode, srcs, dests, iq_tag, hint_value)
        return cls(rows)

    def __len__(self) -> int:
        return len(self.flags)

    def row(self, pc: int) -> int:
        """The row of ``pc``; ``ValueError`` when no row describes it."""
        offset = pc - self.base
        row = offset >> 2
        if offset & 3 or not 0 <= row < len(self.flags):
            raise ValueError(
                f"trace pc {pc:#x} names no static instruction (table base "
                f"{self.base:#x}, {len(self.flags)} rows)"
            )
        return row

    def pcs(self) -> range:
        """The pc of every row, in row order."""
        return range(self.base, self.base + 4 * len(self), 4)

    def packed(self) -> bytes:
        """The rows as the native kernel's 40-byte ``StaticRow`` records."""
        if self._packed is None:
            self._packed = b"".join(map(_native_row, self._rows))
        return self._packed


def static_table(program) -> StaticTable:
    """The :class:`StaticTable` of ``program`` (memoised by content, see
    :func:`_program_record`)."""
    return _program_record(program)[1]


class HintRuns:
    """Where a program's hint NOOPs sit between its other instructions.

    A program with hint NOOPs replays the trace of the same program with
    its hints stripped.  Its runs have one entry per row of that
    *stripped* layout, in row order, in three ``array('q')`` columns.

    Attributes:
        rows: the entry's row in the program's own layout, that is in
            its :class:`StaticTable`.
        sequential: the hints right before it that control passes
            through when it arrives sequentially: after an entry not
            taken, or after a return, which resumes past its call.  The
            run reaches back to the procedure's previous non-hint
            instruction (or its start), across block boundaries.
        taken: the hints that a taken branch, jump or call to its block
            passes through: those at the start of its block.
        trailing: stripped row -> the hints after it, for the last
            non-hint instruction of a procedure that ends in hints.
    """

    __slots__ = ("rows", "sequential", "taken", "trailing", "_packed")

    def __init__(self, rows, sequential, taken, trailing: Optional[dict] = None):
        self.rows = array.array("q", rows)
        self.sequential = array.array("q", sequential)
        self.taken = array.array("q", taken)
        self.trailing = trailing or {}
        self._packed: Optional[bytes] = None

    def pcs(self) -> range:
        """The pcs a stripped trace may hold, one per entry."""
        return range(CODE_BASE, CODE_BASE + 4 * len(self.rows), 4)

    def packed(self) -> bytes:
        """The entries as the native kernel's ``HintRun`` records: own row,
        sequential count, taken count, each a native ``int64``."""
        if self._packed is None:
            packed = array.array("q", bytes(24 * len(self.rows)))
            packed[0::3] = self.rows
            packed[1::3] = self.sequential
            packed[2::3] = self.taken
            self._packed = packed.tobytes()
        return self._packed

    def hint_map(self, flags: bytes, columns: TraceWindow, budget: int) -> "HintMap":
        """The map of a replay of ``columns``, this program's stripped
        trace, at ``budget``: these runs plus the tail run.

        Hints follow the last entry only when control falls off the end
        of its procedure: when the trace ends on a next pc of 0 after an
        entry that was not taken, or after a return to a call that ends
        its procedure.  ``flags`` is the own-layout table's column.
        """
        length = len(columns.taken)
        if not length or columns.next_pc[length - 1]:
            return HintMap(self, 0, 0, budget)
        anchor = (columns.pc[length - 1] - CODE_BASE) >> 2
        if flags[self.rows[anchor]] & F_RET:
            anchor = self._returning_call(flags, columns.pc, length - 1)
        elif columns.taken[length - 1]:
            return HintMap(self, 0, 0, budget)
        count = self.trailing.get(anchor, 0)
        return HintMap(self, self.rows[anchor] + 1 if count else 0, count, budget)

    def _returning_call(self, flags: bytes, pcs, index: int) -> int:
        """The stripped row of the CALL that the RET at entry ``index``
        returns to."""
        rows = self.rows
        depth = 0
        for position in range(index - 1, -1, -1):
            row = (pcs[position] - CODE_BASE) >> 2
            flag = flags[rows[row]]
            if flag & F_RET:
                depth += 1
            elif flag & F_CALL:
                if not depth:
                    return row
                depth -= 1
        raise ValueError("trace returns from the entry procedure mid-trace")


class HintMap(NamedTuple):
    """How a kernel expands a stream's hint NOOPs at fetch.

    Fetch goes entry by entry through the stripped trace.  Before each
    entry it fetches the hints of the entry's ``sequential`` run, or of
    its ``taken`` run when the entry before it was a taken branch, jump
    or call (not a return): the own rows just below the entry's own row.
    After the last entry it fetches the tail run, and it stops after
    ``budget`` entries, hints included.  The result is the program's own
    emulation, entry for entry.

    Attributes:
        runs: the program's :class:`HintRuns`.
        tail_row / tail_count: the hints after the last entry, own rows
            ``tail_row`` up to ``tail_row + tail_count``; none when the
            count is 0.
        budget: the most entries a replay fetches.
    """

    runs: HintRuns
    tail_row: int
    tail_count: int
    budget: int


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _emulator_code_digest() -> str:
    """Digest of every source module the emulated stream depends on.

    The stored arrays are a function of the emulator's semantics — which
    include the ISA definitions (opcodes, register constants, instruction
    and program structure), not just ``emulator.py`` — and this module
    defines the digest that keys them and what the replay core reads
    back.  Any of them changing must invalidate every persisted trace.
    """
    from repro.isa import instruction, opcodes, program, registers
    from repro.uarch import emulator as emulator_module

    digest = hashlib.sha256()
    for module in (emulator_module, instruction, opcodes, program, registers):
        digest.update(Path(module.__file__).read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()


#: Memo of :func:`_program_record`, keyed by :func:`_program_content`.
#: Small: an entry holds a copy of the program's content (up to about
#: 1 MiB, for gcc) and its table, and a benchmark's cells take turns
#: over four distinct programs.
_PROGRAM_MEMO_CAPACITY = 4
_program_memo: "OrderedDict[tuple, ProgramRecord]" = OrderedDict()

#: ``Opcode.HINT`` as :func:`_program_content` records an opcode.
_HINT_OPCODE = Opcode.HINT._value_


class ProgramDigests(NamedTuple):
    """The three content digests of one program.

    Attributes:
        program: its full static content (:func:`program_digest`), hint
            payloads and tags included.
        emulation: the content the emulator reads, that is everything
            but hint payloads and issue-queue tags.  Equal to
            ``program`` when neither is set.
        source: the emulation digest of the same program with its hint
            NOOPs stripped, the trace a program with :class:`HintRuns`
            replays; None for a program that replays its own emulation.
    """

    program: str
    emulation: str
    source: Optional[str]

    @property
    def trace(self) -> str:
        """The digest that keys the trace the program replays."""
        return self.source or self.emulation


def _program_content(program) -> tuple:
    """The full static content of ``program``, as one hashable tuple.

    Procedure order and names, library flags, block labels, and every
    instruction's :func:`_instruction_item`, in layout order.  The
    emulator reads all of it but hint payloads and issue-queue tags.
    """
    items: list = [program.entry]
    for procedure in program.procedures.values():
        items.append((procedure.name, procedure.is_library))
        for block in procedure.blocks:
            items.append(block.label)
            items.extend(map(_instruction_item, block.instructions))
    return tuple(items)


def _sha256(content: tuple) -> str:
    """SHA-256 over ``content``'s marshal encoding.

    Format 2 writes no back-references and no interning flags, so equal
    content always encodes to equal bytes.  A Python release that changed
    the format could only cause trace-cache misses, never a wrong hit.
    """
    return hashlib.sha256(marshal.dumps(content, 2)).hexdigest()


#: One :func:`_program_record`: the program's digests, its table and,
#: for a program that replays its stripped program's trace, its runs.
ProgramRecord = tuple[ProgramDigests, StaticTable, Optional[HintRuns]]


def _hint_runs(content: tuple) -> Optional[HintRuns]:
    """The :class:`HintRuns` of one :func:`_program_content` walk.

    None when a procedure has no block or a block holds hints but no
    other instruction, and the program then replays its own emulation.
    Stripping would empty that block, and a branch to it and a branch to
    the block after it would record the same target in the stripped
    trace, though only the first passes its hints.  A block that is
    empty in both layouts passes no hints, and the emulator records the
    next instruction executed past it, so runs reach across it.
    """
    rows: list[int] = []
    sequential: list[int] = []
    taken: list[int] = []
    trailing: dict[int, int] = {}
    own = -1  # own-layout row of the current instruction
    run = 0  # hints since the procedure's last non-hint instruction
    start = 0  # ``run`` where the current block starts
    first = False  # the current block has had no non-hint instruction
    blocks = -1  # blocks of the current procedure (-1: none started)
    for item in content[1:] + (None,):
        if type(item) is tuple and len(item) == 8:
            own += 1
            if item[0] == _HINT_OPCODE:
                run += 1
                continue
            rows.append(own)
            sequential.append(run)
            taken.append(run - start if first else 0)
            run = 0
            first = False
            continue
        if first and run > start:
            return None  # the block just ended holds only hints
        if type(item) is str:  # a block label
            blocks += 1
            start = run
            first = True
            continue
        # A procedure starts, or the content ends: close the procedure.
        if not blocks:
            return None
        if run:
            trailing[len(rows) - 1] = run
        run = 0
        blocks = 0
        first = False
    return HintRuns(rows, sequential, taken, trailing)


def _content_record(content: tuple) -> ProgramRecord:
    """The digests, static table and hint runs of one
    :func:`_program_content` walk.

    Content order is layout order, so table row ``i`` is the ``i``-th
    instruction item.  The emulation digest masks the hint payload and
    tag of the instructions that carry either, and the source digest
    leaves the HINT instructions out of that.
    """
    rows = []
    hints: set[int] = set()
    masked: dict[int, tuple] = {}
    for index, item in enumerate(content):
        if type(item) is tuple and len(item) == 8:
            opcode, dests, srcs, _, _, _, hint_value, iq_tag = item
            rows.append(_row(opcode, srcs, dests, iq_tag, hint_value))
            if opcode == _HINT_OPCODE:
                hints.add(index)
            if hint_value is not None or iq_tag is not None:
                masked[index] = item[:6] + (None, None)
    full = emulation = _sha256(content)
    emulated = content
    if masked:
        items = list(content)
        for index, item in masked.items():
            items[index] = item
        emulated = tuple(items)
        emulation = _sha256(emulated)
    source = runs = None
    if hints:
        runs = _hint_runs(content)
    if runs is not None:
        source = _sha256(
            tuple([item for index, item in enumerate(emulated) if index not in hints])
        )
    return ProgramDigests(full, emulation, source), StaticTable(rows), runs


def _program_record(program) -> ProgramRecord:
    """The :class:`ProgramDigests`, :class:`StaticTable` and
    :class:`HintRuns` of ``program``.

    Memoised on its content, never on object identity: programs may be
    mutated in place between simulations (``build_benchmark(fresh=True)``
    exists exactly for that), and a mutated program has new content, so
    it misses.  A hit still walks the program once, but skips the
    hashing and the table.  That matters because every ``simulate`` call
    takes both, and a warm replay under the native kernel takes only a
    few milliseconds.
    """
    content = _program_content(program)
    record = _program_memo.get(content)
    if record is not None:
        _program_memo.move_to_end(content)
        return record
    record = _content_record(content)
    _program_memo[content] = record
    while len(_program_memo) > _PROGRAM_MEMO_CAPACITY:
        _program_memo.popitem(last=False)
    return record


def program_digest(program) -> str:
    """SHA-256 over the program's full static content, in layout order.

    The digest covers :func:`_program_content`, hint payloads and tags
    included.  Traces are keyed by :attr:`ProgramDigests.trace`
    instead.
    """
    return _program_record(program)[0].program


def _trace_pcs(record: ProgramRecord) -> range:
    """The pcs the trace a program replays may hold: its stripped
    layout's for a program with :class:`HintRuns`, else its table's."""
    _, table, runs = record
    return table.pcs() if runs is None else runs.pcs()


def _fingerprint_from_digest(digest: str, max_instructions: int) -> str:
    payload = {
        "format": TRACE_FORMAT_VERSION,
        "emulator": _emulator_code_digest(),
        "program": digest,
        "max_instructions": max_instructions,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_fingerprint(program, max_instructions: int) -> str:
    """The disk-cache key of ``program``'s trace: the name of the file
    :func:`get_trace_stream` reads and writes for it.

    It digests :attr:`ProgramDigests.trace`, so programs that differ
    only in hint NOOPs, hint payloads or tags share one trace file.
    """
    return _fingerprint_from_digest(_program_record(program)[0].trace, max_instructions)


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
class TraceCache(EntryStore):
    """Content-addressed binary cache of emulation results.

    On-disk layout (format 3): one file per trace, named
    ``<fingerprint>.trace.bin``, holding a one-line JSON header followed
    by a binary payload.  The header records the ``format``, the entry
    count ``length`` and the writer's ``byteorder``.  The payload is the
    four :class:`TraceWindow` columns whole, in the writer's byte order:
    the ``int64`` ``pc``, ``next_pc`` and ``mem`` columns, then one
    ``taken`` byte per entry (25 bytes per instruction).  Static
    attributes come from the program's :class:`StaticTable`, never from
    the file, so the payload stays compact and table changes need no
    format bump.

    Any malformation — a missing or stale-format header, a ``length``
    that is not a non-negative integer, a truncated or overlong payload,
    a pc that doesn't resolve in the program — makes the file corrupt:
    the trace is re-emulated and re-stored, never partially trusted.
    The directory discipline is :class:`~repro.atomicio.EntryStore`'s,
    shared with :class:`repro.harness.cache.ResultCache`: a corrupt file
    is quarantined, a read error is a plain miss, and a hit refreshes
    the file's mtime.  A store whose publication fails (read-only or
    full directory) is a counted degraded store, with no retry and one
    warning per directory: traces are pure acceleration, so losing the
    persistence must never fail the simulation that produced them.
    Nothing is pruned here: ``cache gc`` caps the directory offline.
    """

    SUFFIX = ".trace.bin"
    KIND = "trace cache"
    DEGRADED = "traces will be re-emulated until it recovers"

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @staticmethod
    def _read_columns(path: Path) -> TraceWindow:
        """Parse and fully validate one stored trace file.

        Raises ``ValueError`` (or the ``KeyError``, ``UnicodeDecodeError``
        or JSON error of a broken header) on any malformation.  The whole
        payload is read up front — it is compact, 25 bytes per
        instruction — so a replay can never fail halfway through on a
        bad file.
        """
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = memoryview(handle.read())
        if not isinstance(header, dict):
            raise ValueError("trace header is not an object")
        if header.get("format") != TRACE_FORMAT_VERSION:
            raise ValueError("stale trace format")
        length = header["length"]
        if type(length) is not int or length < 0:
            raise ValueError("trace length is not a non-negative integer")
        if len(payload) != _ENTRY_BYTES * length:
            raise ValueError("trace payload does not hold its length")
        swap = header["byteorder"] != sys.byteorder
        words = 8 * length
        columns = []
        for index in range(3):
            column = array.array("q")
            column.frombytes(payload[index * words : (index + 1) * words])
            if swap:
                column.byteswap()
            columns.append(column)
        return TraceWindow(*columns, bytearray(payload[3 * words :]))

    def _open_validated(self, fingerprint: str, pcs: range) -> Optional[TraceWindow]:
        """Read, validate and pc-resolve a stored trace; None on a miss.

        ``pcs`` are the pcs the trace may hold (:func:`_trace_pcs`): the
        rows of the program's static table, or for a program with
        :class:`HintRuns` every pc of its stripped layout.  A stored pc
        outside them means corruption (or a fingerprint collision), like
        any other malformed payload, forcing a clean re-emulation.
        """

        def resolved(path: Path) -> TraceWindow:
            columns = self._read_columns(path)
            if not set(columns.pc).issubset(pcs):
                raise ValueError("unresolvable pc in stored trace")
            return columns

        columns = self._read(fingerprint, resolved)
        trace_events["disk_misses" if columns is None else "disk_hits"] += 1
        return columns

    def load(self, fingerprint: str, program) -> Optional[TraceWindow]:
        """The stored columns for ``fingerprint``, validated against the
        layout of the trace ``program`` replays; None on a miss."""
        return self._open_validated(fingerprint, _trace_pcs(_program_record(program)))

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def store(self, fingerprint: str, columns: TraceWindow) -> Path:
        """Atomically persist ``columns`` under ``fingerprint``."""
        return TraceWindowWriter(self, fingerprint, columns).commit()


class TraceWindowWriter:
    """One atomic :class:`TraceCache` store of a trace's columns.

    Nothing touches the cache directory until :meth:`commit`, which
    writes the header and then each column straight from its buffer.
    """

    def __init__(self, cache: TraceCache, fingerprint: str, columns: TraceWindow):
        self._cache = cache
        self._fingerprint = fingerprint
        self._columns = columns

    def commit(self) -> Path:
        """Write header + columns and atomically publish the file.

        Returns the file's path, also when the store failed and was
        counted as degraded (the file may then be absent).
        """
        header = {
            "format": TRACE_FORMAT_VERSION,
            "length": self._columns.length,
            "byteorder": sys.byteorder,
        }

        def _write(handle) -> None:
            handle.write(json.dumps(header, separators=(",", ":")).encode())
            handle.write(b"\n")
            for column in self._columns:
                handle.write(column)

        if self._cache._store_entry(self._fingerprint, _write, binary=True):
            trace_events["disk_stores"] += 1
        return self._cache.path_for(self._fingerprint)


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
#: In-process memo of trace columns, keyed by (trace digest, budget) so
#: in-place program mutation can never resurface a stale trace.  At 25
#: bytes per instruction it restores the emulate-once-per-benchmark
#: guarantee when no disk cache is configured (every cell of an uncached
#: grid would otherwise re-emulate).  A benchmark's six techniques read
#: one trace, the uninstrumented program's, so four entries hold four
#: benchmarks' traces.
_COLUMN_MEMO_CAPACITY = 4
_column_memo: "OrderedDict[tuple[str, int], TraceWindow]" = OrderedDict()


def _memoise_columns(key: tuple, columns: TraceWindow) -> None:
    _column_memo[key] = columns
    while len(_column_memo) > _COLUMN_MEMO_CAPACITY:
        _column_memo.popitem(last=False)


def clear_trace_memo() -> None:
    """Drop every memoised column set, static table and digest (test
    isolation)."""
    _column_memo.clear()
    _program_memo.clear()


def _stored_columns(
    key: tuple, cache: Optional[TraceCache], pcs: range
) -> Optional[TraceWindow]:
    """The columns for ``key`` from the memo, else the disk cache (read
    back only when every pc lies in ``pcs``; a disk hit is memoised);
    None when neither holds them."""
    columns = _column_memo.get(key)
    if columns is not None:
        trace_events["memo_hits"] += 1
        _column_memo.move_to_end(key)
        return columns
    if cache is not None:
        columns = cache._open_validated(_fingerprint_from_digest(*key), pcs)
        if columns is not None:
            _memoise_columns(key, columns)
    return columns


def _emulated_columns(program, max_instructions: int, hints: bool = True) -> TraceWindow:
    """Emulate ``program`` whole and return the emulator's own columns.

    ``hints=False`` emulates the program with its hint NOOPs stripped.
    """
    trace_events["emulations"] += 1
    emulator = FunctionalEmulator(program, hints=hints)
    pcs, next_pcs, takens, mems = emulator.run_collect(max_instructions)
    return TraceWindow(pcs, next_pcs, mems, takens)


def _replayed_columns(
    program,
    record: ProgramRecord,
    max_instructions: int,
    cache: Optional[TraceCache],
) -> TraceWindow:
    """The columns of the trace ``program`` replays.

    The column memo, then the disk cache, then one emulation, which is
    stored once under the trace's fingerprint and memoised.  A program
    with :class:`HintRuns` replays its stripped program's trace.
    """
    digests, _, runs = record
    key = (digests.trace, max_instructions)
    columns = _stored_columns(key, cache, _trace_pcs(record))
    if columns is None:
        columns = _emulated_columns(program, max_instructions, hints=runs is None)
        if cache is not None:
            cache.store(_fingerprint_from_digest(*key), columns)
        _memoise_columns(key, columns)
    return columns


def get_trace_columns(
    program,
    max_instructions: int,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> TraceWindow:
    """The whole trace's columns for (program, budget).

    Takes the same path as :func:`get_trace_stream`, so for a program
    with :class:`HintRuns` these are its stripped program's columns, the
    trace its stream replays.  ``live`` emulates the program itself,
    hints included.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    if live:
        return _emulated_columns(program, max_instructions)
    return _replayed_columns(program, _program_record(program), max_instructions, cache)


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class TraceWindowStream:
    """A program's :class:`StaticTable` plus its trace's one window.

    A replay kernel takes ``table`` and pulls the window through
    :meth:`next_window` once per run.  A stream of a program with
    :class:`HintRuns` carries ``hints``, the :class:`HintMap` by which
    the kernels expand its stripped trace at fetch; None for every
    other stream.
    """

    __slots__ = ("table", "hints", "_window")

    def __init__(
        self,
        table: StaticTable,
        window: TraceWindow,
        hints: Optional[HintMap] = None,
    ):
        self.table = table
        self._window = window
        self.hints = hints

    @classmethod
    def from_dynamic_stream(
        cls, dyns: Iterable[DynamicInstruction]
    ) -> "TraceWindowStream":
        """The stream of a :class:`DynamicInstruction` sequence.

        The table's rows come from the statics the stream executes, at
        their layout pcs; rows no entry reaches hold a plain NOP.
        """
        columns = empty_columns()
        statics: dict[int, Instruction] = {}
        for dyn in dyns:
            statics.setdefault(dyn.pc, dyn.static)
            columns.pc.append(dyn.pc)
            columns.next_pc.append(dyn.next_pc)
            columns.mem.append(dyn.mem_address or 0)
            columns.taken.append(1 if dyn.taken else 0)
        return cls(StaticTable.from_statics(statics), columns)

    def next_window(self) -> Optional[TraceWindow]:
        """The trace's window the first time, then None."""
        window, self._window = self._window, None
        return window


def get_trace_stream(
    program,
    max_instructions: int,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> TraceWindowStream:
    """A replay-ready stream for (program, budget).

    Reuses three tiers while only ever holding compact columns: the
    in-process column memo (one trace per benchmark and budget even with
    no disk cache), then the disk cache, then one emulation that
    populates both (:func:`_replayed_columns`).  A program with hint
    NOOPs gets its stripped program's trace and a :class:`HintMap`;
    ``live`` emulates the program itself, hints included, with no map.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    record = _program_record(program)
    _, table, runs = record
    if live:
        return TraceWindowStream(table, _emulated_columns(program, max_instructions))
    columns = _replayed_columns(program, record, max_instructions, cache)
    hints = None if runs is None else runs.hint_map(table.flags, columns, max_instructions)
    return TraceWindowStream(table, columns, hints)
