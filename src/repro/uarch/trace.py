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

Windows are ``memoryview`` slices of the columns, consumed forward-only
through a :class:`TraceWindowStream` that also carries the table.  The
replay core releases windows as it retires past them, so at most the
windows spanning its fetch queue are resident; statistics are
bit-identical for every window size, including 1.

Hints leave architectural state alone by design, so a benchmark's
instrumented programs execute the uninstrumented program's stream:

* traces are keyed by the **emulation digest**, the program content
  without hint payloads and issue-queue tags (:class:`ProgramDigests`),
  so the tagged ``extension`` and ``improved`` programs share the
  baseline's trace while their static tables, keyed by the full
  :func:`program_digest`, still carry the tags to the kernels;
* a program with hint NOOPs has its trace **derived** from the trace of
  the same program with its hints stripped (whose emulation digest is
  the baseline's): each source pc moves to its pc in the hinted layout,
  and the hints control passes through are spliced in
  (:func:`_splice_hints`), the budget counting them.

Three reuse tiers sit in front of the emulator:

1. an **in-process column memo** keyed by (emulation digest, budget),
   so every technique simulated against one benchmark shares its
   traces at every budget;
2. an optional **on-disk cache** (:class:`TraceCache`),
   content-addressed like :mod:`repro.harness.cache`: the key digests
   the emulation digest, the instruction budget and the source of the
   emulator and of this module, so editing the emulator or the
   derivation (or regenerating a workload with different traits) can
   never resurrect a stale trace.  It stores exactly the columns,
   derived traces under the hinted program's own key;
3. **live emulation** (``live=True`` or the ``REPRO_LIVE_EMULATION``
   environment variable), which bypasses both tiers, derives nothing
   and runs the interpreter on the program itself — the reference path
   the equivalence tests compare against.

On a miss, a hinted program's trace is derived when either tier holds
its stripped program's trace, and emulated otherwise.  An emulated trace
streams: the emulator yields one window of columns at a time, and each
is replayed as it arrives.  A derivation runs inside the stream's first
window pull.

Module-level :data:`trace_events` counters record emulations,
derivations, memo hits and disk hits/misses/stores so tests can assert
that a warm cache skips re-emulation entirely.
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
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from repro.atomicio import publish_atomically
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, default_latency, fu_class, is_branch
from repro.uarch.config import DEFAULT_TRACE_WINDOW_ENTRIES
from repro.uarch.emulator import (
    CODE_BASE,
    DynamicInstruction,
    FunctionalEmulator,
    ProgramLayout,
)
from repro.uarch.functional_units import FU_INDEX

#: Bump when the on-disk payload layout changes.  Version 2: windowed
#: payloads — the header carries per-window entry counts and byte offsets
#: so windows load independently; version-1 files (monolithic, no window
#: table) are treated as misses and re-emulated.
TRACE_FORMAT_VERSION = 2

#: Bytes per stored dynamic instruction: three little-endian ``int64``
#: columns (pc, next_pc, mem_address) plus one taken byte.
_ENTRY_BYTES = 25

#: Trace-cache directories that already warned about degraded (store
#: publication failing) operation this process; one warning each.
_DEGRADED_STORE_WARNED: set[str] = set()

# Per-instruction classification flags (one byte per static instruction).
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


#: :func:`_opcode_decode` for every opcode, keyed by its value (as
#: :func:`_program_content` records it), so decoding a static costs one
#: lookup rather than a dozen property calls that each hash an enum.
_OPCODE_DECODE: dict[str, tuple[int, int, int]] = {
    opcode._value_: _opcode_decode(opcode) for opcode in Opcode
}

#: Counters for tests and reports: how often the emulator actually ran
#: versus how often an emulated trace was reused.
trace_events: dict[str, int] = {
    "emulations": 0,
    "derivations": 0,
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
# Columns and windows
# ----------------------------------------------------------------------
class TraceWindow(NamedTuple):
    """Consecutive trace entries as four parallel columns.

    The whole trace and each replay window have this one shape: ``pc``,
    ``next_pc`` and ``mem`` (effective address, 0 for non-memory
    entries) hold ``int64`` items (an ``array('q')`` or a ``memoryview``
    of one), ``taken`` one 0/1 byte per entry (a ``bytearray`` or a
    ``memoryview`` of one).
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


def _column_windows(
    columns: TraceWindow, window_size: Optional[int]
) -> Iterator[TraceWindow]:
    """``memoryview`` slices of ``columns``, ``window_size`` entries each
    (None or 0: one window).  Nothing is copied."""
    views = [memoryview(column) for column in columns]
    length = len(views[3])
    step = window_size if window_size and window_size > 0 else (length or 1)
    for start in range(0, length, step):
        stop = start + step
        yield TraceWindow(*[view[start:stop] for view in views])


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
    flags, latency, fu_ordinal = _OPCODE_DECODE[opcode]
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
_FILLER_ROW = _OPCODE_DECODE[Opcode.NOP._value_] + (None, 0, ((), (), (), ()))

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


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _emulator_code_digest() -> str:
    """Digest of every source module the emulated stream depends on.

    The stored arrays are a function of the emulator's semantics — which
    include the ISA definitions (opcodes, register constants, instruction
    and program structure), not just ``emulator.py`` — and this module
    derives the stored traces of hinted programs and defines what the
    replay core reads back.  Any of them changing must invalidate every
    persisted trace.
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
_program_memo: "OrderedDict[tuple, tuple[ProgramDigests, StaticTable]]" = OrderedDict()

#: ``Opcode.HINT`` as :func:`_program_content` records an opcode.
_HINT_OPCODE = Opcode.HINT._value_


class ProgramDigests(NamedTuple):
    """The three content digests of one program.

    Attributes:
        program: its full static content (:func:`program_digest`), hint
            payloads and tags included.
        emulation: the content the emulator reads, that is everything
            but hint payloads and issue-queue tags; keys the trace.
            Equal to ``program`` when neither is set.
        source: the emulation digest of the same program with its hint
            NOOPs stripped, the trace a hinted trace is derived from;
            None for a program without hint NOOPs.
    """

    program: str
    emulation: str
    source: Optional[str]


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


def _content_record(content: tuple) -> tuple[ProgramDigests, StaticTable]:
    """The digests and static table of one :func:`_program_content` walk.

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
    source = None
    if hints:
        source = _sha256(
            tuple([item for index, item in enumerate(emulated) if index not in hints])
        )
    return ProgramDigests(full, emulation, source), StaticTable(rows)


def _program_record(program) -> tuple[ProgramDigests, StaticTable]:
    """The :class:`ProgramDigests` and :class:`StaticTable` of ``program``.

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
    included.  Traces are keyed by the emulation digest instead
    (:class:`ProgramDigests`).
    """
    return _program_record(program)[0].program


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

    It digests the emulation digest, so programs that differ only in hint
    payloads or tags share one trace file.
    """
    return _fingerprint_from_digest(
        _program_record(program)[0].emulation, max_instructions
    )


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
class TraceCache:
    """Windowed, content-addressed binary cache of emulation results.

    On-disk layout (format 2): one file per trace, named
    ``<fingerprint>.trace.bin``, holding a one-line JSON header followed
    by a binary payload.  The header records the total entry count, the
    window size the trace was stored with, and two parallel lists —
    ``windows`` (entries per window) and ``offsets`` (each window's byte
    offset into the payload) — so every window is independently
    addressable.  Each window's blob is its raw little-endian ``int64``
    ``pc`` / ``next_pc`` / ``mem_address`` columns followed by one
    ``taken`` byte per entry (25 bytes per instruction): exactly the
    :class:`TraceWindow` columns.  Static attributes come from the
    program's :class:`StaticTable`, never from the file, so the payload
    stays compact and table changes need no format bump.

    Any malformation — a missing or stale-format header, an inconsistent
    window table, a truncated payload, a pc that doesn't resolve in the
    program — is a clean miss: the trace is re-emulated and re-stored,
    never partially trusted.  A *corrupt* file (one that was read
    successfully but failed validation) is additionally moved aside to
    ``quarantine/`` inside the cache directory — visible for
    post-mortem, swept by ``cache gc`` on the consumed-marker age bound,
    and out of the way so the re-store lands cleanly; a file that merely
    failed to *read* (EIO, permissions) is left in place, since it may
    be intact and the fault transient.  A store whose publication fails
    (read-only or full directory) degrades to a counted no-op with one
    warning per directory: traces are pure acceleration, so losing the
    persistence must never fail the simulation that produced them.

    Writes are atomic (temp file + ``os.replace``), making one directory
    safe to share between concurrent workers — the same discipline as
    :class:`repro.harness.cache.ResultCache`.  With ``max_bytes`` set,
    every store prunes least-recently-used traces until the directory
    fits under the cap (hits refresh recency via file mtimes, mirroring
    ``ResultCache.max_entries``); the freshly stored file is never the
    victim.

    Attributes:
        directory: cache root (created on first store).
        max_bytes: directory size cap (None means unbounded, the default).
        hits / misses / stores / evictions: counters for tests and the
            ``--cache-stats`` report.
    """

    def __init__(
        self, directory: str | os.PathLike, max_bytes: Optional[int] = None
    ):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be a positive integer or None")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.quarantined = 0
        self.degraded_stores = 0

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.trace.bin"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt trace aside — visible, gc-swept, never re-read.

        Mirrors ``ResultCache._quarantine``: without the move the bad
        file keeps the fingerprint's slot, so the re-emulated trace
        could never be re-stored past some failure modes and every
        future lookup would re-parse the corruption.
        """
        target = self.directory / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            self.quarantined += 1
        except OSError:  # pragma: no cover - hostile or raced directory
            pass

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read_columns(self, fingerprint: str) -> tuple[TraceWindow, Path]:
        """Parse and fully validate one stored trace.

        Returns ``(columns, path)`` with the concatenated columns,
        raising on any malformation (stale format, inconsistent window
        table, truncated payload).  The whole payload is read up front —
        it is compact, 25 bytes per instruction — so a replay can never
        fail halfway through on a bad file; readers re-chunk the columns
        to whatever window size their run requests, so the stored layout
        never dictates replay memory.
        """
        path = self.path_for(fingerprint)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            if header.get("format") != TRACE_FORMAT_VERSION:
                raise ValueError("stale trace format")
            length = header["length"]
            counts = header["windows"]
            offsets = header["offsets"]
            payload = handle.read()
        if not isinstance(counts, list) or not isinstance(offsets, list):
            raise ValueError("malformed window table")
        if len(counts) != len(offsets) or sum(counts) != length:
            raise ValueError("inconsistent window table")
        if len(payload) != _ENTRY_BYTES * length:
            raise ValueError("truncated trace payload")
        swap = header["byteorder"] != sys.byteorder
        pcs = array.array("q")
        next_pcs = array.array("q")
        mems = array.array("q")
        taken = bytearray()
        expected_offset = 0
        for count, offset in zip(counts, offsets):
            if count < 0 or offset != expected_offset:
                raise ValueError("inconsistent window table")
            expected_offset += _ENTRY_BYTES * count
            word_bytes = 8 * count
            pcs.frombytes(payload[offset : offset + word_bytes])
            next_pcs.frombytes(payload[offset + word_bytes : offset + 2 * word_bytes])
            mems.frombytes(payload[offset + 2 * word_bytes : offset + 3 * word_bytes])
            taken.extend(
                payload[offset + 3 * word_bytes : offset + 3 * word_bytes + count]
            )
        if swap:
            for arr in (pcs, next_pcs, mems):
                arr.byteswap()
        return TraceWindow(pcs, next_pcs, mems, taken), path

    def _open_validated(self, fingerprint: str, pcs: range) -> Optional[TraceWindow]:
        """Read, validate and pc-resolve a stored trace; None on a miss.

        ``pcs`` are the pcs a trace of the program may hold: its static
        table's rows, or for a derivation's source every pc of the
        stripped layout.  A stored pc outside them means corruption (or a
        fingerprint collision) and is a miss like any other malformed
        payload, forcing a clean re-emulation.  Hits refresh the file's
        mtime (LRU recency).
        """
        try:
            columns, path = self._read_columns(fingerprint)
            if not set(columns.pc).issubset(pcs):
                raise ValueError("unresolvable pc in stored trace")
        except (FileNotFoundError, OSError):
            # Missing, or unreadable right now: plain miss, leave the
            # file (if any) alone — it may be intact under a transient
            # read error.
            self.misses += 1
            trace_events["disk_misses"] += 1
            return None
        except (
            ValueError,
            KeyError,
            TypeError,
            UnicodeDecodeError,
            json.JSONDecodeError,
        ):
            # Validation failures only arise for a file that *was* read:
            # genuine corruption (or a fingerprint collision) — set it
            # aside so the re-store lands cleanly.
            self._quarantine(self.path_for(fingerprint))
            self.misses += 1
            trace_events["disk_misses"] += 1
            return None
        self.hits += 1
        trace_events["disk_hits"] += 1
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        return columns

    def load(self, fingerprint: str, program) -> Optional[TraceWindow]:
        """The stored columns for ``fingerprint``, validated against
        ``program``; None on a miss."""
        return self._open_validated(fingerprint, static_table(program).pcs())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def open_store(
        self, fingerprint: str, window_size: Optional[int] = None
    ) -> "TraceWindowWriter":
        """A writer that accumulates windows and commits one atomic file."""
        return TraceWindowWriter(self, fingerprint, window_size)

    def store(
        self,
        fingerprint: str,
        columns: TraceWindow,
        window_size: Optional[int] = None,
    ) -> Path:
        """Atomically persist ``columns`` under ``fingerprint``.

        ``window_size`` splits the payload into independently loadable
        windows; None stores the whole trace as a single window.
        """
        writer = self.open_store(fingerprint, window_size)
        for window in _column_windows(columns, window_size):
            writer.add(window)
        return writer.commit()

    # ------------------------------------------------------------------
    # Bounding and reporting
    # ------------------------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        # Exclude in-flight (or orphaned) ``.tmp-*`` writer files.
        if not self.directory.is_dir():
            return []
        return [
            path
            for path in self.directory.glob("*.trace.bin")
            if not path.name.startswith(".")
        ]

    def _prune(self, protect: Optional[Path] = None) -> None:
        """Evict least-recently-used traces until the byte cap is met.

        ``protect`` (the file a store just wrote) is never evicted, so a
        single trace larger than the cap does not immediately evict
        itself and thrash.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort()
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            total -= size
            self.evictions += 1

    def cache_stats(self) -> dict:
        """Size and traffic summary for reports (``--cache-stats``)."""
        paths = self._entry_paths()
        total_bytes = 0
        for path in paths:
            try:
                total_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - concurrent eviction
                pass
        return {
            "directory": str(self.directory),
            "traces": len(paths),
            "total_bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "degraded_stores": self.degraded_stores,
        }

    def __len__(self) -> int:
        return len(self._entry_paths())


class TraceWindowWriter:
    """Accumulates encoded windows for one atomic :class:`TraceCache` store.

    Window blobs are buffered in their stored form (25 bytes per
    instruction), so an in-flight store costs megabytes at worst.
    Nothing touches the cache directory until :meth:`commit`; abandoning
    the writer (for example a replay cut short by ``max_cycles``)
    therefore stores nothing.
    """

    def __init__(
        self, cache: TraceCache, fingerprint: str, window_size: Optional[int]
    ):
        self._cache = cache
        self._fingerprint = fingerprint
        self._window_size = window_size
        self._blobs: list[bytes] = []
        self._counts: list[int] = []

    def add(self, window: TraceWindow) -> None:
        """Append one window's columns, in their stored byte layout."""
        self._blobs.append(b"".join(window))
        self._counts.append(window.length)

    def commit(self) -> Path:
        """Assemble header + payload and atomically publish the file."""
        cache = self._cache
        offsets: list[int] = []
        offset = 0
        for count in self._counts:
            offsets.append(offset)
            offset += _ENTRY_BYTES * count
        header = {
            "format": TRACE_FORMAT_VERSION,
            "length": sum(self._counts),
            "window_size": self._window_size,
            "byteorder": sys.byteorder,
            "windows": self._counts,
            "offsets": offsets,
        }

        def _write(handle) -> None:
            handle.write(json.dumps(header, separators=(",", ":")).encode())
            handle.write(b"\n")
            for blob in self._blobs:
                handle.write(blob)

        path = cache.path_for(self._fingerprint)
        try:
            publish_atomically(path, _write, binary=True)
        except OSError as error:
            # Traces are pure acceleration: a directory that stopped
            # accepting writes (read-only remount, disk full, an
            # injected fault) costs a re-emulation next run, never the
            # simulation that produced this trace.  Warn once per
            # directory, count it, and report the intended path.
            cache.degraded_stores += 1
            directory_key = str(cache.directory)
            if directory_key not in _DEGRADED_STORE_WARNED:
                _DEGRADED_STORE_WARNED.add(directory_key)
                warnings.warn(
                    f"trace cache {directory_key} is not accepting writes "
                    f"({error}); traces will be re-emulated until it recovers",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return path
        cache.stores += 1
        trace_events["disk_stores"] += 1
        cache._prune(protect=path)
        return path


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
#: In-process memo of trace columns, keyed by (emulation digest, budget)
#: so in-place program mutation can never resurface a stale trace.  At
#: 25 bytes per instruction it restores the emulate-once-per-benchmark
#: guarantee when no disk cache is configured (every cell of an uncached
#: grid would otherwise re-emulate).  A benchmark's six techniques read
#: two traces, the uninstrumented program's and the noop program's, so
#: four entries hold two benchmarks' traces.
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


def _emulated_windows(
    program,
    max_instructions: int,
    window_size: Optional[int],
    cache: Optional[TraceCache] = None,
    fingerprint: Optional[str] = None,
    memo_key: Optional[tuple] = None,
) -> Iterator[TraceWindow]:
    """Emulate once, yielding column windows as they are produced.

    With a cache, each window is buffered as it streams past and the file
    is committed atomically when the emulation completes; with
    ``memo_key``, the columns also land in the in-process memo.  An
    abandoned replay stores and memoises nothing.
    """
    trace_events["emulations"] += 1
    writer = (
        cache.open_store(fingerprint, window_size) if cache is not None else None
    )
    columns = empty_columns() if memo_key is not None else None
    emulator = FunctionalEmulator(program)
    for pcs, next_pcs, takens, mems in emulator.run_collect_windows(
        max_instructions, window_size
    ):
        window = TraceWindow(
            array.array("q", pcs),
            array.array("q", next_pcs),
            array.array("q", [0 if mem is None else mem for mem in mems]),
            bytearray(map(bool, takens)),
        )
        if writer is not None:
            writer.add(window)
        if columns is not None:
            for column, part in zip(columns, window):
                column.extend(part)
        yield window
    if writer is not None:
        writer.commit()
    if memo_key is not None:
        _memoise_columns(memo_key, columns)


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
      source next pc of 0), after the last entry or, for a return, after
      the call it returns to;
    * nothing after a HALT or a return from the entry procedure.

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
        anchor = _returning_call(pcs, last, plan) if last_pc in returns else last_pc
        count = plan.run_after.get(anchor)
        if count:
            runs.append((last, hinted_pc[anchor] + 4, count))
        end = 0

    mapped = array.array("q", list(map(hinted_pc.__getitem__, pcs)))
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


def _fresh_windows(
    program,
    digests: ProgramDigests,
    max_instructions: int,
    window_size: Optional[int],
    cache: Optional[TraceCache],
) -> Iterator[TraceWindow]:
    """The windows of a trace neither tier holds, produced on the first pull.

    A program with hint NOOPs has its trace derived when the memo or the
    disk cache holds the trace of the program with its hints stripped;
    otherwise the program is emulated.  Either way the finished columns
    are memoised under (emulation digest, budget), and stored with a
    cache, a derived trace under the hinted program's own key.
    """
    key = (digests.emulation, max_instructions)
    fingerprint = None if cache is None else _fingerprint_from_digest(*key)
    plan = source = None
    if digests.source is not None:
        plan = _splice_plan(program)
    if plan is not None:
        source = _stored_columns(
            (digests.source, max_instructions), cache, plan.source_pcs
        )
    if source is None:
        yield from _emulated_windows(
            program, max_instructions, window_size, cache, fingerprint, key
        )
        return
    trace_events["derivations"] += 1
    columns = _splice_hints(plan, source, max_instructions)
    if cache is not None:
        cache.store(fingerprint, columns, window_size)
    _memoise_columns(key, columns)
    yield from _column_windows(columns, window_size)


def get_trace_columns(
    program,
    max_instructions: int,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> TraceWindow:
    """The whole trace's columns for (program, budget).

    Takes the same path as :func:`get_trace_stream` — the column memo,
    then the disk cache, then one derivation or emulation that populates
    both.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    window = resolve_trace_window(None) or None
    if live:
        columns = empty_columns()
        for part in _emulated_windows(program, max_instructions, window):
            for column, values in zip(columns, part):
                column.extend(values)
        return columns
    digests, table = _program_record(program)
    key = (digests.emulation, max_instructions)
    columns = _stored_columns(key, cache, table.pcs())
    if columns is None:
        for _ in _fresh_windows(program, digests, max_instructions, window, cache):
            pass
        columns = _column_memo[key]
    return columns


# ----------------------------------------------------------------------
# Windowed streaming
# ----------------------------------------------------------------------
class TraceWindowStream:
    """A program's :class:`StaticTable` plus its trace's windows.

    The replay kernels take ``table`` once per run and pull consecutive
    :class:`TraceWindow` windows forward-only as fetch crosses each
    boundary, releasing each once dispatch has consumed every entry in
    it; backed by a lazy iterator this bounds resident trace memory by
    the window size rather than the instruction budget.
    """

    __slots__ = ("table", "window_size", "_iterator", "_exhausted")

    def __init__(
        self,
        table: StaticTable,
        windows: Iterable[TraceWindow],
        window_size: Optional[int] = None,
    ):
        self.table = table
        self._iterator = iter(windows)
        self.window_size = window_size
        self._exhausted = False

    @classmethod
    def from_dynamic_stream(
        cls, dyns: Iterable[DynamicInstruction]
    ) -> "TraceWindowStream":
        """One window over a :class:`DynamicInstruction` stream.

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
        return cls(StaticTable.from_statics(statics), (columns,))

    def next_window(self) -> Optional[TraceWindow]:
        """The next consecutive window, or None once the trace ends."""
        if self._exhausted:
            return None
        window = next(self._iterator, None)
        if window is None:
            self._exhausted = True
        return window


def resolve_trace_window(window_size: Optional[int] = None) -> int:
    """The effective window size: the argument, else the default.

    ``0`` disables windowing (one window at any budget); negative values
    are rejected.  None means
    :data:`~repro.uarch.config.DEFAULT_TRACE_WINDOW_ENTRIES`.
    """
    if window_size is None:
        window_size = DEFAULT_TRACE_WINDOW_ENTRIES
    if window_size < 0:
        raise ValueError("trace window must be a non-negative instruction count")
    return window_size


def get_trace_stream(
    program,
    max_instructions: int,
    window_size: Optional[int] = None,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> TraceWindowStream:
    """A replay-ready window stream for (program, budget).

    Reuses three tiers while only ever holding compact columns: the
    in-process column memo (one trace per benchmark and budget even with
    no disk cache), then the disk cache, then one fresh derivation (a
    program with hint NOOPs whose stripped program's trace either tier
    holds) or emulation that populates both and streams its windows.
    ``window_size=0`` replays the whole trace as one window.  Replay
    statistics are bit-identical for every window size.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    window = resolve_trace_window(window_size) or None
    digests, table = _program_record(program)
    if live:
        return TraceWindowStream(
            table, _emulated_windows(program, max_instructions, window), window
        )
    columns = _stored_columns(
        (digests.emulation, max_instructions), cache, table.pcs()
    )
    if columns is None:
        windows = _fresh_windows(program, digests, max_instructions, window, cache)
    else:
        windows = _column_windows(columns, window)
    return TraceWindowStream(table, windows, window)
