"""Tests for the trace pre-decode & replay subsystem.

Three families:

* **Equivalence** — the statistics of a run must not depend on how the
  trace columns were obtained: live emulation, the in-process memo, or a
  round-trip through the on-disk :class:`~repro.uarch.trace.TraceCache`
  must all produce byte-identical :class:`SimulationStats`, across every
  technique policy and structurally different workloads.
* **Invalidation** — the trace fingerprint must move whenever anything
  that can change the committed stream moves: workload traits, the
  instruction budget, or the emulator's own source digest.
* **Reuse** — a (benchmark × technique) grid emulates each distinct
  program once; with a warm on-disk trace cache, a fresh process-like
  runner re-times cells without re-emulating at all.
"""

from __future__ import annotations

import array
import dataclasses
import json
import struct
import sys

import pytest

from repro.core import CompilerConfig, compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import ResultCache, gc_cache_tree, stats_to_dict
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FU_ORDER, Opcode
from repro.isa.registers import int_reg
from repro.techniques import (
    AbellaPolicy,
    BaselinePolicy,
    NonEmptyPolicy,
    SoftwareDirectedPolicy,
)
from repro.uarch import TraceCache, get_engine, simulate
from repro.uarch.emulator import CODE_BASE, FunctionalEmulator, ProgramLayout
from repro.uarch.engine import native as native_module
from repro.uarch import trace as trace_module
from repro.uarch.trace import (
    F_BRANCH,
    F_CALL,
    F_HINT,
    F_LOAD,
    F_NOP,
    F_RET,
    F_STORE,
    TRACE_FORMAT_VERSION,
    StaticTable,
    TraceWindowStream,
    clear_trace_memo,
    get_trace_columns,
    get_trace_stream,
    program_digest,
    reset_trace_events,
    static_table,
    trace_events,
    trace_fingerprint,
)
from repro.workloads import ALL_TRAITS, build_benchmark, generate_program

MAX_INSTRUCTIONS = 3_000
WORKLOADS = ("gzip", "branchstorm", "fpstream")
TECHNIQUES = ("baseline", "nonempty", "abella", "noop", "extension", "improved")


def _policy(technique: str):
    if technique == "baseline":
        return BaselinePolicy()
    if technique == "nonempty":
        return NonEmptyPolicy()
    if technique == "abella":
        return AbellaPolicy(interval_cycles=256)
    return SoftwareDirectedPolicy(variant=technique)


def _program(benchmark: str, technique: str):
    if technique in ("noop", "extension", "improved"):
        result = compile_program(
            build_benchmark(benchmark), CompilerConfig(), mode=technique
        )
        return result.instrumented_program
    return build_benchmark(benchmark)


def _stats_bytes(stats) -> bytes:
    return json.dumps(stats_to_dict(stats), sort_keys=True).encode()


class TestReplayEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_live_memo_and_disk_paths_are_byte_identical(
        self, workload, technique, tmp_path
    ):
        program = _program(workload, technique)
        kwargs = dict(max_instructions=MAX_INSTRUCTIONS, warmup_instructions=500)

        clear_trace_memo()
        live = simulate(program, _policy(technique), live_emulation=True, **kwargs)

        # First cached call: emulates once, stores to disk, memoises.
        cache_dir = tmp_path / "traces"
        stored = simulate(
            program, _policy(technique), trace_cache=str(cache_dir), **kwargs
        )
        # Second call with a cold memo: must come back from disk.
        clear_trace_memo()
        reset_trace_events()
        replayed = simulate(
            program, _policy(technique), trace_cache=str(cache_dir), **kwargs
        )
        assert trace_events["emulations"] == 0
        assert trace_events["disk_hits"] == 1

        assert _stats_bytes(live) == _stats_bytes(stored) == _stats_bytes(replayed)

    def test_in_place_program_mutation_reemulates(self):
        """The memo keys on program *content*, not object identity, so
        mutating a ``fresh=True`` program between runs must re-emulate."""
        program = build_benchmark("gzip", fresh=True)
        simulate(program, BaselinePolicy(), max_instructions=1_500)
        instr = next(iter(program.procedures.values())).blocks[0].instructions[0]
        instr.imm += 7
        mutated = simulate(program, BaselinePolicy(), max_instructions=1_500)
        clear_trace_memo()
        live = simulate(
            program, BaselinePolicy(), max_instructions=1_500, live_emulation=True
        )
        assert _stats_bytes(mutated) == _stats_bytes(live)

    def test_warmup_run_is_identical_across_paths(self, tmp_path):
        """The warm-up clock rebase must survive the replay path too."""
        program = build_benchmark("gzip")
        kwargs = dict(max_instructions=4_000, warmup_instructions=2_000)
        clear_trace_memo()
        live = simulate(program, BaselinePolicy(), live_emulation=True, **kwargs)
        via_cache = simulate(
            program, BaselinePolicy(), trace_cache=str(tmp_path), **kwargs
        )
        assert _stats_bytes(live) == _stats_bytes(via_cache)
        assert live.committed_instructions == 2_000


class TestTraceFile:
    """The stored trace: a damaged or older file is a clean miss."""

    def test_truncated_payload_is_a_clean_miss(self, tmp_path):
        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        clear_trace_memo()
        kwargs = dict(max_instructions=2_000)
        first = simulate(program, BaselinePolicy(), trace_cache=cache, **kwargs)
        path = cache.path_for(trace_fingerprint(program, 2_000))
        payload = path.read_bytes()
        path.write_bytes(payload[:-10])  # chop the taken column's tail

        clear_trace_memo()  # the corrupted file must be consulted, not the memo
        reset_trace_events()
        again = simulate(program, BaselinePolicy(), trace_cache=cache, **kwargs)
        assert trace_events["disk_misses"] == 1  # counted, not crashed
        assert trace_events["emulations"] == 1  # re-emulated...
        assert trace_events["disk_stores"] == 1  # ...and re-stored
        assert _stats_bytes(first) == _stats_bytes(again)

    def test_old_format_trace_files_are_invalidated(self, tmp_path):
        """A format-1 file (monolithic, no window table) and a format-2
        file (a per-window table) planted at the fingerprint's path are
        clean misses, never misreads: the format bump turns them away."""
        import sys

        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 1_000)
        path = cache.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        assert TRACE_FORMAT_VERSION > 2
        header = {"format": 1, "length": 0, "byteorder": sys.byteorder}
        path.write_bytes(json.dumps(header).encode() + b"\n")
        assert cache.load(fingerprint, program) is None
        assert cache.misses == 1

        columns = get_trace_columns(program, 1_000, live=True)
        windowed = {
            "format": 2,
            "length": columns.length,
            "window_size": 16_384,
            "byteorder": sys.byteorder,
            "windows": [columns.length],
            "offsets": [0],
        }
        path.write_bytes(
            json.dumps(windowed).encode() + b"\n" + b"".join(map(bytes, columns))
        )
        assert cache.load(fingerprint, program) is None
        assert cache.misses == 2
        assert cache.hits == 0


    @pytest.mark.parametrize("byteorder", ("little", "big"))
    def test_either_byte_order_reads_back(self, byteorder, tmp_path):
        """A file written on a host of either byte order reads back to
        the same columns: the reader swaps the ``int64`` columns of the
        other order, and the ``taken`` bytes need no swap."""
        program = build_benchmark("gzip")
        columns = get_trace_columns(program, 1_000, live=True)
        words = [array.array("q", column) for column in columns[:3]]
        if byteorder != sys.byteorder:
            for column in words:
                column.byteswap()
        header = {
            "format": TRACE_FORMAT_VERSION,
            "length": columns.length,
            "byteorder": byteorder,
        }
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 1_000)
        path = cache.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            json.dumps(header).encode()
            + b"\n"
            + b"".join(map(bytes, words))
            + bytes(columns.taken)
        )
        loaded = cache.load(fingerprint, program)
        assert (cache.hits, cache.misses) == (1, 0)
        assert _column_bytes(loaded) == _column_bytes(columns)


class TestTraceCacheBounding:
    """The trace cache's byte cap, which ``cache gc`` enforces offline:
    LRU eviction over file mtime, and the survivors still replay."""

    def test_byte_cap_evicts_least_recently_used(self, tmp_path):
        import os
        import time

        program = build_benchmark("gzip")
        clear_trace_memo()
        trace = get_trace_columns(program, 1_000)
        cache = TraceCache(tmp_path / "traces")
        for index in range(5):
            path = cache.store(f"{index:064x}", trace)
            stamp = time.time() - 100 + index
            os.utime(path, (stamp, stamp))
        size = path.stat().st_size
        summaries = gc_cache_tree(tmp_path, max_trace_bytes=3 * size + size // 2)
        by_dir = {summary["directory"]: summary for summary in summaries}
        assert by_dir[str(cache.directory)]["entries_removed"] == 2
        assert by_dir[str(tmp_path)]["entries_removed"] == 0
        survivors = {path.name for path in cache._entry_paths()}
        assert survivors == {f"{index:064x}.trace.bin" for index in (2, 3, 4)}
        assert cache.load(f"{4:064x}", program) is not None
        assert cache.quarantined == 0


class TestTraceFingerprint:
    def test_changing_traits_changes_the_fingerprint(self):
        base = build_benchmark("gzip")
        tweaked_traits = dataclasses.replace(ALL_TRAITS["gzip"], seed=999_999)
        tweaked = generate_program(tweaked_traits)
        assert trace_fingerprint(base, 1_000) != trace_fingerprint(tweaked, 1_000)

    def test_changing_budget_changes_the_fingerprint(self):
        program = build_benchmark("gzip")
        assert trace_fingerprint(program, 1_000) != trace_fingerprint(program, 2_000)

    def test_changing_emulator_digest_misses_the_cache(self, tmp_path, monkeypatch):
        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        clear_trace_memo()
        get_trace_columns(program, 1_000, cache=cache)
        assert cache.stores == 1

        import repro.uarch.trace as trace_module

        monkeypatch.setattr(
            trace_module, "_emulator_code_digest", lambda: "0" * 64
        )
        clear_trace_memo()
        reset_trace_events()
        get_trace_columns(program, 1_000, cache=cache)
        # The edited-emulator fingerprint cannot resurrect the old trace.
        assert trace_events["disk_hits"] == 0
        assert trace_events["emulations"] == 1

    def test_hinted_programs_share_the_plain_trace_fingerprint(self):
        """A noop program replays its plain program's trace, so it shares
        that trace's file, while its table digest stays its own."""
        plain = build_benchmark("gzip")
        hinted = _program("gzip", "noop")
        assert trace_fingerprint(plain, 1_000) == trace_fingerprint(hinted, 1_000)
        assert program_digest(plain) != program_digest(hinted)

    def test_memoised_digest_follows_in_place_edits(self):
        """The digest memo keys on content: every edit a compiler pass can
        make in place moves the digest, and undoing it moves it back."""
        program = build_benchmark("gzip", fresh=True)
        original = program_digest(program)
        instr = next(iter(program.procedures.values())).blocks[0].instructions[0]
        seen = {original}
        for field, value in (("iq_tag", 24), ("imm", instr.imm + 1)):
            before = getattr(instr, field)
            setattr(instr, field, value)
            edited = program_digest(program)
            assert edited not in seen
            seen.add(edited)
            setattr(instr, field, before)
            assert program_digest(program) == original


def test_static_decode_flags_match_the_instruction_predicates():
    """The static table's rows agree with ``Instruction``'s own
    classification for every opcode."""
    predicates = (
        (F_HINT, "is_hint"),
        (F_BRANCH, "is_branch"),
        (F_CALL, "is_call"),
        (F_RET, "is_return"),
        (F_LOAD, "is_load"),
        (F_STORE, "is_store"),
    )
    for opcode in Opcode:
        instr = Instruction(
            opcode, target="b", call_target="f", hint_value=8, iq_tag=16
        )
        table = StaticTable.from_statics({CODE_BASE: instr})
        row = table.row(CODE_BASE)
        flags = table.flags[row]
        for bit, name in predicates:
            assert bool(flags & bit) == getattr(instr, name), (opcode, name)
        assert bool(flags & F_NOP) == (opcode is Opcode.NOP)
        assert table.latency[row] == instr.latency
        assert FU_ORDER[table.fu[row]] is instr.fu_class
        assert table.iq_tag[row] == 16
        assert table.hint_value[row] == 8


def test_static_table_rows_follow_the_program_layout():
    """Row ``(pc - CODE_BASE) >> 2`` is the static the emulator lays out
    at ``pc``, for every static of an instrumented benchmark; any other
    pc has no row."""
    program = _program("gzip", "extension")
    table = static_table(program)
    layout = ProgramLayout.for_program(program)
    statics = [
        instr
        for procedure in program.procedures.values()
        for block in procedure.blocks
        for instr in block.instructions
    ]
    assert len(table) == len(statics) == layout.code_size // 4
    assert list(layout.instruction_at.values()) == statics
    for instr in statics:
        assert layout.instruction_at[layout.instruction_pc[instr.uid]] is instr
        row = table.row(layout.instruction_pc[instr.uid])
        assert table.iq_tag[row] == instr.iq_tag
        assert table.rename_specs[row][2] == tuple(
            reg.index for reg in instr.dests if not reg.is_fp
        )
    end = CODE_BASE + layout.code_size
    for pc in (CODE_BASE - 4, CODE_BASE + 2, end):
        with pytest.raises(ValueError):
            table.row(pc)
    assert {CODE_BASE, end - 4} <= set(table.pcs())
    assert end not in table.pcs()


def test_static_table_follows_the_pcs_the_layout_assigns():
    """The table places each static at the pc its layout gives it, so a
    layout that moves code (here: 64 bytes up) still maps every pc to its
    own static, with NOP rows below."""
    program = build_benchmark("gzip")
    layout = ProgramLayout.for_program(program, base_address=CODE_BASE + 64)
    table = StaticTable.from_statics(layout.instruction_at)
    full = static_table(program)
    assert len(table) == len(full) + 16
    assert table.flags[:16] == bytes([F_NOP]) * 16
    for pc in layout.instruction_at:
        assert table.rename_specs[table.row(pc)] == full.rename_specs[
            full.row(pc - 64)
        ]
        assert table.flags[table.row(pc)] == full.flags[full.row(pc - 64)]


#: Both kernels; the native one only where it builds.
KERNELS = (
    "scalar",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_module.native_available(),
            reason="native kernel unavailable",
        ),
    ),
)


def _column_bytes(columns) -> tuple[bytes, ...]:
    return tuple(bytes(column) for column in columns)


class TestStaticTable:
    """The per-program table both kernels index by ``(pc - base) >> 2``."""

    def test_empty_table_has_no_rows(self):
        table = StaticTable([])
        assert len(table) == 0
        assert table.packed() == b""
        assert not table.pcs()
        with pytest.raises(ValueError, match="names no static instruction"):
            table.row(CODE_BASE)

    @pytest.mark.parametrize("technique", ("noop", "extension"))
    def test_packed_rows_follow_the_native_layout(self, technique):
        """``packed()`` is the C kernel's 40-byte ``StaticRow`` per row:
        iq_tag, hint payload, flags, latency, FU, a pad byte, four
        operand counts, then four register slots per category."""
        table = static_table(_program("gzip", technique))
        assert any(table.hint_value) or any(
            tag is not None for tag in table.iq_tag
        )
        layout = struct.Struct("=qqBBBx4B16B")
        packed = table.packed()
        assert layout.size == 40 and len(packed) == 40 * len(table)
        for row, record in enumerate(layout.iter_unpack(packed)):
            iq_tag, hint_value, flags, latency, fu = record[:5]
            counts, regs = record[5:9], record[9:]
            expected_tag = table.iq_tag[row]
            assert iq_tag == (-(1 << 63) if expected_tag is None else expected_tag)
            assert hint_value == table.hint_value[row]
            assert (flags, latency, fu) == (
                table.flags[row],
                table.latency[row],
                table.fu[row],
            )
            for slot, operands in enumerate(table.rename_specs[row]):
                assert counts[slot] == len(operands)
                assert regs[4 * slot : 4 * slot + len(operands)] == operands

    @pytest.mark.parametrize("pc", (CODE_BASE - 4, CODE_BASE + 2))
    def test_a_static_at_a_pc_without_a_row_is_rejected(self, pc):
        """Only 4-byte-aligned pcs at or above the base have a row."""
        with pytest.raises(ValueError, match="has no table row"):
            StaticTable.from_statics({pc: Instruction(Opcode.NOP)})

    def test_statics_land_at_their_pcs_rows(self):
        load = Instruction(Opcode.LOAD, dests=[int_reg(1)], srcs=[int_reg(2)])
        table = StaticTable.from_statics({CODE_BASE + 8: load})
        assert len(table) == 3
        assert list(table.pcs()) == [CODE_BASE, CODE_BASE + 4, CODE_BASE + 8]
        assert table.flags == bytes([F_NOP, F_NOP, F_LOAD])
        assert table.rename_specs[2] == ((2,), (), (1,), ())

    def test_more_than_four_operands_per_category_cannot_be_packed(self):
        row = (0, 1, 0, None, 0, ((1, 2, 3, 4, 5), (), (), ()))
        with pytest.raises(ValueError, match="at most 4 operands"):
            StaticTable([row]).packed()

    def test_tables_are_memoised_by_program_content(self):
        clear_trace_memo()
        first = static_table(build_benchmark("gzip"))
        # A rebuilt program with the same content shares the table.
        assert static_table(build_benchmark("gzip")) is first
        clear_trace_memo()
        rebuilt = static_table(build_benchmark("gzip"))
        assert rebuilt is not first
        assert rebuilt.packed() == first.packed()
        assert rebuilt.rename_specs == first.rename_specs
        assert static_table(_program("gzip", "noop")) is not rebuilt

    @pytest.mark.parametrize("technique", ("baseline", "noop", "extension"))
    def test_each_simulate_walks_its_program_once(self, monkeypatch, technique):
        """Cold (digests and table missing, the trace emulated or, for
        noop, the plain program's from the memo) or warm, one
        ``simulate`` call walks its program exactly once."""
        walks = []
        walk = trace_module._program_content

        def counted(program):
            walks.append(program)
            return walk(program)

        monkeypatch.setattr(trace_module, "_program_content", counted)
        program = _program("gzip", technique)
        clear_trace_memo()
        if technique == "noop":
            simulate(build_benchmark("gzip"), BaselinePolicy(), max_instructions=1_000)
        reset_trace_events()
        for _ in ("cold", "warm"):
            walks.clear()
            simulate(program, _policy(technique), max_instructions=1_000)
            assert walks == [program]
        assert trace_events["emulations"] == (technique != "noop")

    def test_a_table_miss_does_not_lay_the_program_out(self, monkeypatch):
        """The table comes from the digests' walk: its rows equal the
        layout's statics, and no :class:`ProgramLayout` is built."""
        program = _program("gzip", "extension")
        laid_out = StaticTable.from_statics(ProgramLayout.for_program(program).instruction_at)

        def refuse(*args, **kwargs):
            raise AssertionError("a static-table miss laid the program out")

        clear_trace_memo()
        monkeypatch.setattr(ProgramLayout, "for_program", refuse)
        table = static_table(program)
        assert table.packed() == laid_out.packed()
        assert table.iq_tag == laid_out.iq_tag
        assert table.rename_specs == laid_out.rename_specs

    def test_clearing_the_memo_drops_every_table(self):
        program = build_benchmark("gzip")
        first = static_table(program)
        program_digest(program)
        clear_trace_memo()
        assert not trace_module._program_memo
        assert static_table(program) is not first

    def test_dynamic_stream_table_fills_unreached_rows_with_nops(self):
        program = build_benchmark("gzip")
        dyns = list(FunctionalEmulator(program).run(500))
        stream = TraceWindowStream.from_dynamic_stream(dyns)
        table, full = stream.table, static_table(program)
        reached = {dyn.pc for dyn in dyns}
        assert len(table) == (max(reached) - CODE_BASE) // 4 + 1
        assert len(reached) < len(table)
        for row in range(len(table)):
            if CODE_BASE + 4 * row in reached:
                assert table.flags[row] == full.flags[row]
                assert table.latency[row] == full.latency[row]
                assert table.fu[row] == full.fu[row]
                assert table.rename_specs[row] == full.rename_specs[row]
            else:
                assert table.flags[row] == F_NOP
                assert table.rename_specs[row] == ((), (), (), ())
        assert _column_bytes(stream.next_window()) == _column_bytes(
            get_trace_columns(program, 500, live=False)
        )
        assert stream.next_window() is None

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_dynamic_stream_replays_like_the_column_stream(self, technique, kernel):
        """The lowered stream of a program's own dynamic instructions, hint
        NOOPs in place, replays like its column stream, which for a
        hinted program is the stripped trace expanded by its map."""
        program = _program("gzip", technique)
        engine = get_engine(kernel)
        kwargs = dict(warmup_instructions=500)
        from_dyns = engine.run(
            TraceWindowStream.from_dynamic_stream(FunctionalEmulator(program).run(2_000)),
            _policy(technique),
            **kwargs,
        )
        from_columns = engine.run(
            get_trace_stream(program, 2_000, live=False),
            _policy(technique),
            **kwargs,
        )
        assert _stats_bytes(from_dyns) == _stats_bytes(from_columns)


class TestColumnMemo:
    """One column set per (program, budget) serves every consumer."""

    def test_columns_are_emulated_once_then_memoised(self):
        program = build_benchmark("gzip")
        clear_trace_memo()
        reset_trace_events()
        first = get_trace_columns(program, 1_000, live=False)
        assert get_trace_columns(program, 1_000, live=False) is first
        stream = get_trace_stream(program, 1_000, live=False)
        assert stream.next_window().pc is first.pc
        assert trace_events["emulations"] == 1
        assert trace_events["memo_hits"] == 2

    @pytest.mark.parametrize("budget", (0, 1, 7, 1_000))
    def test_a_stream_hands_out_the_whole_trace_once(self, budget):
        """A stream's one window is the memo's own columns, every entry
        of the budget (none for an empty trace), and a second pull finds
        the stream drained."""
        program = build_benchmark("gzip")
        clear_trace_memo()
        columns = get_trace_columns(program, budget, live=False)
        stream = get_trace_stream(program, budget, live=False)
        window = stream.next_window()
        assert all(part is whole for part, whole in zip(window, columns))
        assert window.length == budget
        assert stream.next_window() is None
        assert stream.next_window() is None

    def test_live_columns_neither_read_nor_fill_the_memo(self):
        program = build_benchmark("gzip")
        clear_trace_memo()
        reset_trace_events()
        live = get_trace_columns(program, 1_000, live=True)
        again = get_trace_columns(program, 1_000, live=True)
        assert trace_events["emulations"] == 2
        stored = get_trace_columns(program, 1_000, live=False)
        assert trace_events["emulations"] == 3
        assert trace_events["memo_hits"] == 0
        assert _column_bytes(live) == _column_bytes(again) == _column_bytes(stored)

    def test_uncached_grid_emulates_once_per_program(self):
        """With no disk cache, repeat cells replay the trace from the
        in-process memo of compact columns: one emulation per program."""
        program = build_benchmark("gzip")
        kwargs = dict(max_instructions=20_000, warmup_instructions=500)
        clear_trace_memo()
        reset_trace_events()
        simulate(program, BaselinePolicy(), **kwargs)
        second = simulate(program, NonEmptyPolicy(), **kwargs)
        assert trace_events["emulations"] == 1
        assert trace_events["memo_hits"] == 1
        clear_trace_memo()
        reference = simulate(program, NonEmptyPolicy(), live_emulation=True, **kwargs)
        assert _stats_bytes(second) == _stats_bytes(reference)


class TestGridReuse:
    CONFIG = dict(
        benchmarks=("gzip", "branchstorm"),
        max_instructions=2_000,
        warmup_instructions=500,
    )
    TECHNIQUES = ("baseline", "nonempty")

    def test_grid_emulates_each_benchmark_once(self, tmp_path):
        clear_trace_memo()
        reset_trace_events()
        runner = ParallelSuiteRunner(
            RunConfig(**self.CONFIG), workers=1, cache_dir=str(tmp_path)
        )
        runner.run_suite(techniques=self.TECHNIQUES)
        assert runner.simulations_run == 4
        # baseline and nonempty share each benchmark's uninstrumented
        # program, so two benchmarks cost exactly two emulations.
        assert trace_events["emulations"] == 2

    def test_six_techniques_emulate_once_per_benchmark(self, tmp_path):
        """Every program of a benchmark replays the baseline's trace (the
        noop program with its hint map): one emulation and one stored
        trace per benchmark, and a second runner over the same trace
        directory reads each once and emulates nothing."""
        benchmarks = len(self.CONFIG["benchmarks"])
        clear_trace_memo()
        reset_trace_events()
        first = ParallelSuiteRunner(
            RunConfig(**self.CONFIG), workers=1, cache_dir=str(tmp_path)
        )
        first_results = first.run_suite()
        assert first.simulations_run == 6 * benchmarks
        assert trace_events["emulations"] == benchmarks
        assert first.trace_cache.stores == len(first.trace_cache) == benchmarks

        for path in first.cache._entry_paths():
            path.unlink()
        clear_trace_memo()
        reset_trace_events()
        second = ParallelSuiteRunner(
            RunConfig(**self.CONFIG), workers=1, cache_dir=str(tmp_path)
        )
        second_results = second.run_suite()
        assert second.simulations_run == 6 * benchmarks
        assert trace_events["emulations"] == 0
        assert second.trace_cache.hits == benchmarks
        for key, result in first_results.items():
            assert _stats_bytes(result.stats) == _stats_bytes(
                second_results[key].stats
            )

    def test_warm_trace_cache_skips_reemulation_entirely(self, tmp_path):
        clear_trace_memo()
        first = ParallelSuiteRunner(
            RunConfig(**self.CONFIG), workers=1, cache_dir=str(tmp_path)
        )
        first_results = first.run_suite(techniques=self.TECHNIQUES)

        # Drop the result cells but keep the decoded traces, as a second
        # host sharing only the trace directory would see.
        for path in first.cache._entry_paths():
            path.unlink()
        clear_trace_memo()
        reset_trace_events()
        second = ParallelSuiteRunner(
            RunConfig(**self.CONFIG), workers=1, cache_dir=str(tmp_path)
        )
        second_results = second.run_suite(techniques=self.TECHNIQUES)

        assert second.simulations_run == 4  # cells really were re-timed
        assert trace_events["emulations"] == 0  # ...without re-emulating
        assert second.trace_cache.hits == 2
        for key, result in first_results.items():
            assert _stats_bytes(result.stats) == _stats_bytes(
                second_results[key].stats
            )


class TestResultCacheHygiene:
    def test_lru_pruning_keeps_most_recent_cells(self, tmp_path):
        """``cache gc --max-entries`` keeps the most recently used cells,
        and they still load byte-identical."""
        import os
        import time

        cache = ResultCache(tmp_path)
        stats = simulate(build_benchmark("gzip"), max_instructions=500)
        for index in range(5):
            fingerprint = f"{index:064x}"
            path = cache.store(fingerprint, stats)
            # Deterministic, strictly increasing recency without sleeping.
            stamp = time.time() - 100 + index
            os.utime(path, (stamp, stamp))
        summaries = gc_cache_tree(tmp_path, max_entries=3)
        by_dir = {summary["directory"]: summary for summary in summaries}
        assert by_dir[str(tmp_path)]["entries_removed"] == 2
        survivors = {path.name for path in cache._entry_paths()}
        assert survivors == {f"{index:064x}.json" for index in (2, 3, 4)}
        assert _stats_bytes(cache.load(f"{4:064x}")) == _stats_bytes(stats)
