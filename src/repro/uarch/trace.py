"""Trace pre-decode and replay: flat arrays instead of object streams.

The timing core is trace-driven, and the committed dynamic instruction
stream is a pure function of (program, instruction budget): no timing
decision ever feeds back into architectural state.  This module therefore
runs the functional emulator **once** per (program, budget) and lowers the
stream into a :class:`DecodedTrace` — parallel flat arrays holding, per
dynamic instruction, the program counter, the next PC, the branch outcome,
the effective memory address, and the pre-decoded timing attributes
(classification flags, execution latency, functional-unit class ordinal,
issue-queue tag, rename operand specs).  The per-cycle hot path in
:mod:`repro.uarch.core` then *replays* these arrays by index: no
interpreter dispatch, no attribute chains through
``DynamicInstruction.static``, and no per-instruction object allocation
remain on the timing loop.

Three reuse tiers sit in front of the emulator:

1. an **in-process memo** keyed by program identity and budget, so every
   technique simulated against the same program object shares one
   emulation (the (benchmark × technique) grid emulates each benchmark
   once, not once per technique);
2. an optional **on-disk cache** (:class:`TraceCache`), content-addressed
   like :mod:`repro.harness.cache`: the key digests the program text, the
   instruction budget and the emulator's own source bytes, so editing the
   emulator (or regenerating a workload with different traits) can never
   resurrect a stale trace.  Only the emulation *results* (pc, next_pc,
   taken, mem_address) are persisted; the pre-decoded attributes are
   recomputed from the program on load, which keeps the format small and
   immune to decode-layer changes;
3. **live emulation** (``live=True`` or the ``REPRO_LIVE_EMULATION``
   environment variable), which bypasses both tiers and re-runs the
   interpreter — the reference path the equivalence tests compare against.

Windowed streaming (:func:`get_trace_stream`) sits on top of the same
tiers: budgets above the window size are lowered window by window — the
emulator yields column chunks and each chunk is decoded independently.
A warm cache reads and validates its compact encoded payload up front
(25 bytes per instruction; the header's per-window offset table keeps
windows independently addressable for future partial readers) and then
decodes it window by window, re-chunked to the requesting run's window
size — only the expensive decoded form is ever lazy, and only it is
bounded by the window.  The replay core consumes the resulting
:class:`TraceWindowStream` forward-only and releases windows as it
retires past them, so peak decoded-trace memory is bounded by the window
size (default :data:`~repro.uarch.config.DEFAULT_TRACE_WINDOW_ENTRIES`)
at any instruction budget.  Statistics are bit-identical for every window
size, including 1.  The streaming path never memoises *decoded* traces —
the whole point is not holding them — but it does memoise the compact
encoded columns (25 bytes per instruction), so a grid still emulates each
benchmark once per process even without a disk cache.

Module-level :data:`trace_events` counters record emulations, memo hits
and disk hits/misses/stores so tests can assert that a warm cache skips
re-emulation entirely.
"""

from __future__ import annotations

import array
import functools
import hashlib
import json
import os
import sys
import warnings
from collections import OrderedDict
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional

from repro.atomicio import publish_atomically
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, default_latency, fu_class, is_branch
from repro.uarch.config import DEFAULT_TRACE_WINDOW_ENTRIES
from repro.uarch.emulator import DynamicInstruction, FunctionalEmulator, ProgramLayout
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

# Per-instruction classification flags (one byte per dynamic instruction).
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


#: :func:`_opcode_decode` for every opcode, so decoding a static costs one
#: lookup rather than a dozen property calls that each hash an enum.
_OPCODE_DECODE: dict[Opcode, tuple[int, int, int]] = {
    opcode: _opcode_decode(opcode) for opcode in Opcode
}

#: Counters for tests and reports: how often the emulator actually ran
#: versus how often a decoded trace was reused.
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


def _decode_column_windows(
    columns: tuple, instr_by_pc: dict, window_size: Optional[int]
) -> Iterable[DecodedTrace]:
    """Lazily decode concatenated emulation columns into replay windows.

    ``columns`` is the compact ``(pcs, next_pcs, mems, taken)`` tuple (25
    bytes per instruction); only one ``window_size``-sized window exists
    in decoded form at a time (None or 0: a single window).
    """
    pcs, next_pcs, mems, taken = columns
    length = len(pcs)
    step = window_size if window_size and window_size > 0 else (length or 1)

    def _decode() -> Iterable[DecodedTrace]:
        for start in range(0, length, step):
            stop = min(start + step, length)
            window_pcs = pcs[start:stop]
            yield DecodedTrace.from_entries(
                (instr_by_pc[pc] for pc in window_pcs),
                window_pcs,
                next_pcs[start:stop],
                taken[start:stop],
                mems[start:stop],
            )

    return _decode()


class DecodedTrace:
    """The committed dynamic instruction stream as parallel flat arrays.

    Every array has one element per committed dynamic instruction; the
    sequence number *is* the index.  ``statics`` holds the unique static
    :class:`~repro.isa.instruction.Instruction` objects (needed only off
    the hot path: hint payloads and debugging), referenced through
    ``static_idx``.

    Attributes:
        length: number of dynamic instructions.
        pc / next_pc: instruction address and successor address.
        taken: 1 when a control transfer was taken (bytearray).
        mem_addr: effective address for loads/stores, 0 otherwise.
        flags: per-instruction classification bits (``F_*`` constants).
        latency: base execution latency in cycles (bytearray).
        fu_idx: functional-unit class ordinal (``FU_ORDER`` index).
        iq_tag: Extension/Improved issue-queue tag or None.
        rename_specs: per-instruction shared tuples
            ``(int_src_idx, fp_src_idx, int_dest_idx, fp_dest_idx)`` of
            architectural register indices, precomputed per static
            instruction so rename never touches ``Reg`` objects.
    """

    __slots__ = (
        "length",
        "statics",
        "static_idx",
        "pc",
        "next_pc",
        "taken",
        "mem_addr",
        "flags",
        "latency",
        "fu_idx",
        "iq_tag",
        "rename_specs",
    )

    def __init__(self) -> None:
        self.length = 0
        self.statics: list[Instruction] = []
        self.static_idx: list[int] = []
        self.pc: list[int] = []
        self.next_pc: list[int] = []
        self.taken = bytearray()
        self.mem_addr: list[int] = []
        self.flags = bytearray()
        self.latency = bytearray()
        self.fu_idx = bytearray()
        self.iq_tag: list[Optional[int]] = []
        self.rename_specs: list[tuple] = []

    def __len__(self) -> int:
        return self.length

    # ------------------------------------------------------------------
    @staticmethod
    def _static_decode(instr: Instruction) -> tuple:
        """Pre-decode one static instruction into hot-path attributes.

        Returns ``(flags, latency, fu_ordinal, iq_tag, rename_spec)``.
        """
        flags, latency, fu_ordinal = _OPCODE_DECODE[instr.opcode]
        srcs = instr.srcs
        dests = instr.dests
        int_srcs = tuple([reg.index for reg in srcs if not reg.is_fp])
        fp_srcs = tuple([reg.index for reg in srcs if reg.is_fp])
        int_dests = tuple([reg.index for reg in dests if not reg.is_fp])
        fp_dests = tuple([reg.index for reg in dests if reg.is_fp])
        return (
            flags,
            latency,
            fu_ordinal,
            instr.iq_tag,
            (int_srcs, fp_srcs, int_dests, fp_dests),
        )

    @classmethod
    def from_entries(
        cls,
        statics_per_entry: Iterable[Instruction],
        pcs: list[int],
        next_pcs: list[int],
        takens: Iterable[int],
        mem_addrs: list[int],
    ) -> "DecodedTrace":
        """Build a trace from per-entry statics plus emulation results."""
        trace = cls()
        index_of: dict[int, int] = {}
        statics = trace.statics
        static_idx = trace.static_idx
        idx_append = static_idx.append
        index_get = index_of.get
        decoded: list[tuple] = []  # per unique static
        static_decode = cls._static_decode
        for instr in statics_per_entry:
            key = id(instr)
            sidx = index_get(key)
            if sidx is None:
                sidx = len(statics)
                index_of[key] = sidx
                statics.append(instr)
                decoded.append(static_decode(instr))
            idx_append(sidx)
        # Scatter the per-static attributes per entry: one itemgetter
        # gathers a whole column in a single C call.
        if decoded:
            flags_by, lat_by, fu_by, tag_by, spec_by = zip(*decoded)
            if len(static_idx) > 1:
                gather = itemgetter(*static_idx)
            else:  # one key: itemgetter would return the bare item

                def gather(column: tuple) -> tuple:
                    return (column[0],)

            trace.flags = bytearray(gather(flags_by))
            trace.latency = bytearray(gather(lat_by))
            trace.fu_idx = bytearray(gather(fu_by))
            trace.iq_tag = list(gather(tag_by))
            trace.rename_specs = list(gather(spec_by))
        trace.pc = list(pcs)
        trace.next_pc = list(next_pcs)
        trace.taken = bytearray(map(bool, takens))
        trace.mem_addr = list(mem_addrs)
        trace.length = len(trace.pc)
        return trace

    @classmethod
    def from_dynamic_stream(
        cls, dyns: Iterable[DynamicInstruction]
    ) -> "DecodedTrace":
        """Lower a :class:`DynamicInstruction` stream into flat arrays."""
        statics: list[Instruction] = []
        pcs: list[int] = []
        next_pcs: list[int] = []
        takens: list[int] = []
        mems: list[int] = []
        for dyn in dyns:
            statics.append(dyn.static)
            pcs.append(dyn.pc)
            next_pcs.append(dyn.next_pc)
            takens.append(1 if dyn.taken else 0)
            mems.append(dyn.mem_address if dyn.mem_address is not None else 0)
        return cls.from_entries(statics, pcs, next_pcs, takens, mems)


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _emulator_code_digest() -> str:
    """Digest of every source module the emulated stream depends on.

    The stored arrays are a function of the emulator's semantics — which
    include the ISA definitions (opcodes, register constants, instruction
    and program structure), not just ``emulator.py`` — and the decode
    layer defines what the replay core reads back.  Any of them changing
    must invalidate every persisted trace.
    """
    from repro.isa import instruction, opcodes, program, registers
    from repro.uarch import emulator as emulator_module

    digest = hashlib.sha256()
    for module in (emulator_module, instruction, opcodes, program, registers):
        digest.update(Path(module.__file__).read_bytes())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()


#: Memo of :func:`program_digest`, keyed by :func:`_program_content`.
#: Small: an entry holds a copy of the program's content (up to about
#: 1 MiB, for gcc), and the callers that repeat a digest do so for the
#: program they just digested.
_DIGEST_MEMO_CAPACITY = 4
_digest_memo: "OrderedDict[tuple, str]" = OrderedDict()


def _program_content(program) -> tuple:
    """Everything the emulator reads from ``program``, as one hashable tuple.

    Procedure order and names, library flags, block labels, and for every
    instruction the opcode, operand registers, immediate, control
    targets, hint payload and issue-queue tag, in layout order.
    """
    items: list = [program.entry]
    for procedure in program.procedures.values():
        items.append((procedure.name, procedure.is_library))
        for block in procedure.blocks:
            items.append(block.label)
            items.extend(
                [
                    (
                        instr.opcode._value_,
                        tuple([(r.index, r.is_fp) for r in instr.dests]),
                        tuple([(r.index, r.is_fp) for r in instr.srcs]),
                        instr.imm,
                        instr.target,
                        instr.call_target,
                        instr.hint_value,
                        instr.iq_tag,
                    )
                    for instr in block.instructions
                ]
            )
    return tuple(items)


def program_digest(program) -> str:
    """SHA-256 over the program's full static content, in layout order.

    The digest covers :func:`_program_content`.  Two programs with
    identical digests produce identical dynamic streams under identical
    budgets.

    Memoised on that content, never on object identity: programs may be
    mutated in place between simulations (``build_benchmark(fresh=True)``
    exists exactly for that), and a mutated program has new content, so
    it misses.  A hit still walks the program, but skips the ``repr``
    and hashing, which cost about three times as much as the walk.  That
    matters because every ``simulate`` call takes a digest, and a warm
    replay under the native kernel takes only a few milliseconds.
    """
    content = _program_content(program)
    digest = _digest_memo.get(content)
    if digest is not None:
        _digest_memo.move_to_end(content)
        return digest
    digest = hashlib.sha256("".join(map(repr, content)).encode()).hexdigest()
    _digest_memo[content] = digest
    while len(_digest_memo) > _DIGEST_MEMO_CAPACITY:
        _digest_memo.popitem(last=False)
    return digest


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
    """Content hash identifying one decoded trace (the disk-cache key)."""
    return _fingerprint_from_digest(program_digest(program), max_instructions)


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
    ``taken`` byte per entry (25 bytes per instruction).  Only emulation
    results are persisted; static instructions are re-resolved from the
    program's deterministic layout on load and the timing attributes
    re-decoded per window, so the payload stays compact and decode-layer
    changes need no format bump.

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
    def _read_columns(self, fingerprint: str) -> tuple[tuple, Path]:
        """Parse and fully validate one stored trace.

        Returns ``(columns, path)`` where ``columns`` is the concatenated
        ``(pcs, next_pcs, mems, taken)`` tuple, raising on any
        malformation (stale format, inconsistent window table, truncated
        payload).  The whole payload is read up front — it is compact, 25
        bytes per instruction — so later per-window decoding can never
        fail halfway through a replay; readers re-chunk the columns to
        whatever window size their run requests, so the stored layout
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
        return (pcs, next_pcs, mems, taken), path

    def _open_validated(self, fingerprint: str, program) -> Optional[tuple]:
        """Read, validate and pc-resolve a stored trace; None on a miss.

        A stored pc that doesn't resolve to a static instruction of this
        program means corruption (or a fingerprint collision) and is a
        miss like any other malformed payload, forcing a clean
        re-emulation.  Hits refresh the file's mtime (LRU recency).
        """
        try:
            columns, path = self._read_columns(fingerprint)
            instr_by_pc = _instructions_by_pc(program)
            if not set(columns[0]) <= instr_by_pc.keys():
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
        return columns, instr_by_pc

    def load(self, fingerprint: str, program) -> Optional[DecodedTrace]:
        """Rebuild the full decoded trace for ``fingerprint``; None on a miss."""
        opened = self._open_validated(fingerprint, program)
        if opened is None:
            return None
        (pcs, next_pcs, mems, taken), instr_by_pc = opened
        return DecodedTrace.from_entries(
            (instr_by_pc[pc] for pc in pcs), pcs, next_pcs, taken, mems
        )

    def open_windows(
        self, fingerprint: str, program, window_size: Optional[int] = None
    ) -> Optional[Iterable[DecodedTrace]]:
        """A lazy iterator of decoded windows; None on a miss.

        The stored columns are re-chunked to ``window_size`` (None or 0:
        one window), whatever layout the file was stored with — a trace
        warmed monolithically or at a different window size still replays
        under the *requesting* run's memory bound.  Validation happens
        entirely up front (see :meth:`_read_columns`), so only the
        expensive decoded form — flags, rename specs, static references —
        is built lazily, one window at a time, as the replay core
        consumes the stream.
        """
        opened = self._open_validated(fingerprint, program)
        if opened is None:
            return None
        columns, instr_by_pc = opened
        return _decode_column_windows(columns, instr_by_pc, window_size)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def open_store(
        self, fingerprint: str, window_size: Optional[int] = None
    ) -> "TraceWindowWriter":
        """A writer that accumulates windows and commits one atomic file."""
        return TraceWindowWriter(self, fingerprint, window_size)

    def store(
        self, fingerprint: str, trace: DecodedTrace, window_size: Optional[int] = None
    ) -> Path:
        """Atomically persist ``trace`` under ``fingerprint``.

        ``window_size`` splits the payload into independently loadable
        windows; None stores the whole trace as a single window.
        """
        writer = self.open_store(fingerprint, window_size)
        length = trace.length
        step = window_size if window_size and window_size > 0 else (length or 1)
        for start in range(0, length, step):
            stop = min(start + step, length)
            writer.add(
                trace.pc[start:stop],
                trace.next_pc[start:stop],
                trace.taken[start:stop],
                trace.mem_addr[start:stop],
            )
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

    Window blobs are buffered in their compact encoded form (25 bytes per
    instruction), so an in-flight store costs megabytes at worst — never
    the decoded trace's hundreds of bytes per instruction.  Nothing
    touches the cache directory until :meth:`commit`; abandoning the
    writer (for example a replay cut short by ``max_cycles``) therefore
    stores nothing.
    """

    def __init__(
        self, cache: TraceCache, fingerprint: str, window_size: Optional[int]
    ):
        self._cache = cache
        self._fingerprint = fingerprint
        self._window_size = window_size
        self._blobs: list[bytes] = []
        self._counts: list[int] = []

    def add(self, pcs, next_pcs, takens, mems) -> None:
        """Append one window's emulation columns (taken may be bools)."""
        self._blobs.append(
            b"".join(
                (
                    array.array("q", pcs).tobytes(),
                    array.array("q", next_pcs).tobytes(),
                    array.array("q", mems).tobytes(),
                    bytes(map(bool, takens)),
                )
            )
        )
        self._counts.append(len(pcs))

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


def _instructions_by_pc(program) -> dict[int, Instruction]:
    """Map every static instruction's layout PC back to the instruction.

    The layout is deterministic for a given program, so the PCs stored on
    disk resolve to the same statics in any process — unlike instruction
    ``uid``s, which are assigned by a process-local counter.
    """
    layout = ProgramLayout.for_program(program)
    by_uid: dict[int, Instruction] = {}
    for procedure in program.procedures.values():
        for block in procedure.blocks:
            for instr in block.instructions:
                by_uid[instr.uid] = instr
    return {pc: by_uid[uid] for uid, pc in layout.instruction_pc.items()}


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def emulate_trace(program, max_instructions: int) -> DecodedTrace:
    """Run the functional emulator and lower its stream (always live)."""
    trace_events["emulations"] += 1
    emulator = FunctionalEmulator(program)
    statics, pcs, next_pcs, takens, mems = emulator.run_collect(max_instructions)
    return DecodedTrace.from_entries(
        statics,
        pcs,
        next_pcs,
        takens,
        [mem if mem is not None else 0 for mem in mems],
    )


#: In-process memo of decoded traces, keyed by (program content digest,
#: budget) so in-place program mutation can never resurface a stale
#: trace.  Bounded: decoded traces are large, and a long-lived grid run
#: touches many (program, budget) pairs exactly once each after warm-up.
_MEMO_CAPACITY = 8
_trace_memo: "OrderedDict[tuple[str, int], DecodedTrace]" = OrderedDict()

#: In-process memo of *encoded* emulation columns for the streaming path,
#: keyed like :data:`_trace_memo`.  At 25 bytes per instruction it
#: preserves the decode-memory bound while restoring the
#: emulate-once-per-benchmark guarantee when budgets exceed the window
#: and no disk cache is configured (every cell of an uncached grid would
#: otherwise re-emulate).
_COLUMN_MEMO_CAPACITY = 8
_column_memo: "OrderedDict[tuple[str, int], tuple]" = OrderedDict()


def _memoise_columns(key: tuple, columns: tuple) -> None:
    _column_memo[key] = columns
    while len(_column_memo) > _COLUMN_MEMO_CAPACITY:
        _column_memo.popitem(last=False)


def clear_trace_memo() -> None:
    """Drop every memoised decoded trace and column set (test isolation)."""
    _trace_memo.clear()
    _column_memo.clear()


def get_decoded_trace(
    program,
    max_instructions: int,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> DecodedTrace:
    """The decoded trace for (program, budget), reusing every tier allowed.

    Args:
        program: the IR program to (re)emulate.
        max_instructions: dynamic instruction budget.
        cache: optional on-disk :class:`TraceCache`.
        live: force a fresh emulation, bypassing the memo and the disk
            cache (the reference path).  Defaults to the
            ``REPRO_LIVE_EMULATION`` environment variable; an explicit
            ``False`` overrides the variable.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    if live:
        return emulate_trace(program, max_instructions)
    digest = program_digest(program)
    key = (digest, max_instructions)
    hit = _trace_memo.get(key)
    if hit is not None:
        trace_events["memo_hits"] += 1
        _trace_memo.move_to_end(key)
        return hit
    trace: Optional[DecodedTrace] = None
    if cache is not None:
        fingerprint = _fingerprint_from_digest(digest, max_instructions)
        trace = cache.load(fingerprint, program)
    if trace is None:
        trace = emulate_trace(program, max_instructions)
        if cache is not None:
            cache.store(fingerprint, trace)
    _trace_memo[key] = trace
    while len(_trace_memo) > _MEMO_CAPACITY:
        _trace_memo.popitem(last=False)
    return trace


# ----------------------------------------------------------------------
# Column access and entry spans (window sharding)
# ----------------------------------------------------------------------
def _columns_from_trace(trace: DecodedTrace) -> tuple:
    """Re-encode a decoded trace into compact emulation columns."""
    return (
        array.array("q", trace.pc),
        array.array("q", trace.next_pc),
        array.array("q", trace.mem_addr),
        bytearray(trace.taken),
    )


def get_trace_columns(
    program,
    max_instructions: int,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> tuple:
    """The compact ``(pcs, next_pcs, mems, taken)`` columns for a trace.

    Reuses the same tiers as :func:`get_trace_stream` — the in-process
    column/decoded memos, then the disk cache, then one fresh emulation
    that populates both — but returns the raw 25-byte-per-instruction
    columns instead of decoded windows.  This is the substrate of window
    sharding (:mod:`repro.harness.shard`): a shard slices an arbitrary
    entry span out of the columns and decodes only that span.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    digest = program_digest(program)
    key = (digest, max_instructions)
    fingerprint: Optional[str] = None
    if not live:
        columns = _column_memo.get(key)
        if columns is not None:
            trace_events["memo_hits"] += 1
            _column_memo.move_to_end(key)
            return columns
        hit = _trace_memo.get(key)
        if hit is not None:
            trace_events["memo_hits"] += 1
            _trace_memo.move_to_end(key)
            columns = _columns_from_trace(hit)
            _memoise_columns(key, columns)
            return columns
        if cache is not None:
            fingerprint = _fingerprint_from_digest(digest, max_instructions)
            opened = cache._open_validated(fingerprint, program)
            if opened is not None:
                columns, _ = opened
                _memoise_columns(key, columns)
                return columns
    trace_events["emulations"] += 1
    window_size = resolve_trace_window(None)
    writer = None
    if cache is not None and not live:
        writer = cache.open_store(fingerprint, window_size or None)
    pcs_acc = array.array("q")
    next_acc = array.array("q")
    mems_acc = array.array("q")
    taken_acc = bytearray()
    emulator = FunctionalEmulator(program)
    for _, pcs, next_pcs, takens, mems in emulator.run_collect_windows(
        max_instructions, window_size or None
    ):
        mems = [mem if mem is not None else 0 for mem in mems]
        takens = bytearray(map(bool, takens))
        if writer is not None:
            writer.add(pcs, next_pcs, takens, mems)
        pcs_acc.extend(pcs)
        next_acc.extend(next_pcs)
        mems_acc.extend(mems)
        taken_acc.extend(takens)
    if writer is not None:
        writer.commit()
    columns = (pcs_acc, next_acc, mems_acc, taken_acc)
    if not live:
        _memoise_columns(key, columns)
    return columns


def commit_mask(program, columns: tuple) -> bytearray:
    """One byte per trace entry: 1 when the entry allocates a ROB slot.

    Hint NOOPs and plain NOPs are stripped in the core's last decode
    stage and never commit, so the committed-instruction count over an
    entry span is the sum of this mask over the span.  Window sharding
    uses it to translate span boundaries (entry indices) into the
    warm-up and measure-span commit counts the replay core consumes.
    """
    instr_by_pc = _instructions_by_pc(program)
    commits_by_pc = {
        pc: 0 if (instr.is_hint or instr.opcode is Opcode.NOP) else 1
        for pc, instr in instr_by_pc.items()
    }
    return bytearray(map(commits_by_pc.__getitem__, columns[0]))


def get_trace_span_stream(
    program,
    max_instructions: int,
    first_entry: int = 0,
    last_entry: Optional[int] = None,
    window_size: Optional[int] = None,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> "TraceWindowStream":
    """A replay-ready window stream over the entry span [first, last).

    The full trace's columns come from :func:`get_trace_columns` (memo →
    disk → one emulation); only the requested span is ever decoded, in
    ``window_size``-sized windows, so a shard's decode memory is bounded
    by the window regardless of where in the trace its span lies.
    """
    window_size = resolve_trace_window(window_size)
    columns = get_trace_columns(program, max_instructions, cache=cache, live=live)
    length = len(columns[0])
    first = max(0, min(first_entry, length))
    last = length if last_entry is None else max(first, min(last_entry, length))
    sliced = tuple(column[first:last] for column in columns)
    return TraceWindowStream(
        _decode_column_windows(sliced, _instructions_by_pc(program), window_size or None),
        window_size or None,
    )


# ----------------------------------------------------------------------
# Windowed streaming
# ----------------------------------------------------------------------
class TraceWindowStream:
    """Forward-only stream of consecutive :class:`DecodedTrace` windows.

    The replay core (:class:`repro.uarch.core.OutOfOrderCore`) pulls the
    next window as its fetch stage crosses each boundary and releases
    windows once dispatch has consumed every entry in them; backed by a
    lazy iterator this bounds peak decoded-trace memory by the window
    size rather than the instruction budget.
    """

    __slots__ = ("window_size", "_iterator", "_exhausted")

    def __init__(
        self,
        windows: Iterable[DecodedTrace],
        window_size: Optional[int] = None,
    ):
        self._iterator = iter(windows)
        self.window_size = window_size
        self._exhausted = False

    @classmethod
    def single(cls, trace: DecodedTrace) -> "TraceWindowStream":
        """Wrap one monolithic decoded trace as a single-window stream."""
        return cls((trace,), window_size=None)

    def next_window(self) -> Optional[DecodedTrace]:
        """The next consecutive window, or None once the trace ends."""
        if self._exhausted:
            return None
        window = next(self._iterator, None)
        if window is None:
            self._exhausted = True
        return window


def resolve_trace_window(window_size: Optional[int] = None) -> int:
    """The effective window size: argument, else env, else the default.

    ``0`` disables windowing (monolithic decode and replay at any
    budget); negative values are rejected.  The environment variable
    ``REPRO_TRACE_WINDOW`` supplies the default when no explicit value is
    given, falling back to
    :data:`~repro.uarch.config.DEFAULT_TRACE_WINDOW_ENTRIES`.
    """
    if window_size is None:
        env = os.environ.get("REPRO_TRACE_WINDOW")
        if env:
            try:
                window_size = int(env)
            except ValueError as exc:
                raise ValueError(
                    "REPRO_TRACE_WINDOW must be an integer instruction "
                    f"count, got {env!r}"
                ) from exc
        else:
            window_size = DEFAULT_TRACE_WINDOW_ENTRIES
    if window_size < 0:
        raise ValueError("trace window must be a non-negative instruction count")
    return window_size


def _emulated_windows(
    program,
    max_instructions: int,
    window_size: int,
    cache: Optional[TraceCache],
    fingerprint: Optional[str],
    memo_key: Optional[tuple] = None,
) -> Iterable[DecodedTrace]:
    """Emulate once, yielding decoded windows as they are produced.

    With a cache, each window's encoded columns are buffered as they
    stream past and the file is committed atomically when the emulation
    completes; with ``memo_key``, the same compact columns also land in
    the in-process column memo.  An abandoned replay stores and memoises
    nothing.
    """
    trace_events["emulations"] += 1
    writer = (
        cache.open_store(fingerprint, window_size) if cache is not None else None
    )
    pcs_acc = array.array("q")
    next_acc = array.array("q")
    mems_acc = array.array("q")
    taken_acc = bytearray()
    emulator = FunctionalEmulator(program)
    for statics, pcs, next_pcs, takens, mems in emulator.run_collect_windows(
        max_instructions, window_size
    ):
        mems = [mem if mem is not None else 0 for mem in mems]
        takens = bytearray(map(bool, takens))
        if writer is not None:
            writer.add(pcs, next_pcs, takens, mems)
        if memo_key is not None:
            pcs_acc.extend(pcs)
            next_acc.extend(next_pcs)
            mems_acc.extend(mems)
            taken_acc.extend(takens)
        yield DecodedTrace.from_entries(statics, pcs, next_pcs, takens, mems)
    if writer is not None:
        writer.commit()
    if memo_key is not None:
        _memoise_columns(memo_key, (pcs_acc, next_acc, mems_acc, taken_acc))


def get_trace_stream(
    program,
    max_instructions: int,
    window_size: Optional[int] = None,
    cache: Optional[TraceCache] = None,
    live: Optional[bool] = None,
) -> TraceWindowStream:
    """A replay-ready window stream for (program, budget).

    Budgets at or below the effective window size — and ``window_size=0``
    — take the monolithic :func:`get_decoded_trace` path, in-process memo
    included, wrapped as a single window; nothing changes for small runs.
    Larger budgets stream, reusing three tiers while only ever holding
    compact encoded columns plus the replay's own resident windows: the
    in-process *column* memo (emulate once per (program, budget) even
    with no disk cache), then the disk cache, then one fresh emulation
    that populates both.  Replay statistics are bit-identical for every
    window size.
    """
    if live is None:
        live = bool(os.environ.get("REPRO_LIVE_EMULATION"))
    window_size = resolve_trace_window(window_size)
    if window_size == 0 or max_instructions <= window_size:
        trace = (
            emulate_trace(program, max_instructions)
            if live
            else get_decoded_trace(program, max_instructions, cache=cache, live=False)
        )
        return TraceWindowStream.single(trace)
    if live:
        return TraceWindowStream(
            _emulated_windows(program, max_instructions, window_size, None, None),
            window_size,
        )
    digest = program_digest(program)
    key = (digest, max_instructions)
    columns = _column_memo.get(key)
    if columns is not None:
        trace_events["memo_hits"] += 1
        _column_memo.move_to_end(key)
        return TraceWindowStream(
            _decode_column_windows(columns, _instructions_by_pc(program), window_size),
            window_size,
        )
    fingerprint = _fingerprint_from_digest(digest, max_instructions)
    if cache is not None:
        opened = cache._open_validated(fingerprint, program)
        if opened is not None:
            stored_columns, instr_by_pc = opened
            _memoise_columns(key, stored_columns)
            return TraceWindowStream(
                _decode_column_windows(stored_columns, instr_by_pc, window_size),
                window_size,
            )
    return TraceWindowStream(
        _emulated_windows(
            program, max_instructions, window_size, cache, fingerprint, key
        ),
        window_size,
    )
