"""Tests for the trace pre-decode & replay subsystem.

Three families:

* **Equivalence** — the statistics of a run must not depend on how the
  decoded trace was obtained: live emulation, the in-process memo, or a
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

import dataclasses
import json

import pytest

from repro.core import CompilerConfig, compile_program
from repro.harness import ParallelSuiteRunner, RunConfig
from repro.harness.cache import ResultCache, stats_to_dict
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.techniques import (
    AbellaPolicy,
    BaselinePolicy,
    NonEmptyPolicy,
    SoftwareDirectedPolicy,
)
from repro.uarch import OutOfOrderCore, TraceCache, simulate
from repro.uarch.functional_units import FU_ORDER
from repro.uarch.trace import (
    F_BRANCH,
    F_CALL,
    F_HINT,
    F_LOAD,
    F_NOP,
    F_RET,
    F_STORE,
    TRACE_FORMAT_VERSION,
    DecodedTrace,
    clear_trace_memo,
    get_decoded_trace,
    get_trace_stream,
    program_digest,
    reset_trace_events,
    trace_events,
    trace_fingerprint,
)
from repro.workloads import ALL_TRAITS, build_benchmark, generate_program

MAX_INSTRUCTIONS = 3_000
WORKLOADS = ("gzip", "branchstorm", "fpstream")


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
    @pytest.mark.parametrize(
        "technique",
        ("baseline", "nonempty", "abella", "noop", "extension", "improved"),
    )
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


class TestWindowedReplay:
    """Streaming windowed replay: bit-identical stats, bounded memory."""

    @pytest.mark.parametrize("window", (1, 7, 250, 1024))
    def test_windowed_replay_is_bit_identical(self, window, tmp_path):
        """Every window size — including 1 and sizes that don't divide
        the budget — must reproduce the monolithic stats exactly, both
        when emulating+storing and when streaming back from disk."""
        program = _program("branchstorm", "improved")
        policy = lambda: SoftwareDirectedPolicy(variant="improved")  # noqa: E731
        kwargs = dict(max_instructions=MAX_INSTRUCTIONS, warmup_instructions=500)
        clear_trace_memo()
        reference = simulate(program, policy(), trace_window=0, **kwargs)

        cache_dir = tmp_path / "traces"
        stored = simulate(
            program, policy(), trace_window=window, trace_cache=str(cache_dir), **kwargs
        )
        clear_trace_memo()  # force the replay to come back from disk
        reset_trace_events()
        replayed = simulate(
            program, policy(), trace_window=window, trace_cache=str(cache_dir), **kwargs
        )
        assert trace_events["emulations"] == 0
        assert trace_events["disk_hits"] == 1
        assert _stats_bytes(reference) == _stats_bytes(stored) == _stats_bytes(replayed)

    @pytest.mark.parametrize(
        "technique",
        ("baseline", "nonempty", "abella", "noop", "extension", "improved"),
    )
    def test_every_technique_matches_monolithic_replay(self, technique):
        """The window boundary carries every piece of microarchitectural
        state a policy can observe, so each technique's stats must be
        unchanged by windowing."""
        program = _program("gzip", technique)
        kwargs = dict(max_instructions=MAX_INSTRUCTIONS, warmup_instructions=500)
        clear_trace_memo()
        monolithic = simulate(program, _policy(technique), trace_window=0, **kwargs)
        windowed = simulate(program, _policy(technique), trace_window=640, **kwargs)
        assert _stats_bytes(monolithic) == _stats_bytes(windowed)

    def test_100k_budget_run_bounds_resident_windows(self):
        """Acceptance: a 100k-instruction run completes with peak decoded
        trace memory bounded by the window size — the core never holds
        more than the two windows spanning its fetch queue — and the
        stats are bit-identical to a monolithic replay."""
        program = build_benchmark("gzip")
        budget = 100_000
        clear_trace_memo()
        stream = get_trace_stream(program, budget, window_size=16_384)
        core = OutOfOrderCore(
            stream, policy=BaselinePolicy(), warmup_instructions=20_000
        )
        windowed = core.run()
        assert core.max_resident_windows <= 2
        clear_trace_memo()
        monolithic = simulate(
            program,
            BaselinePolicy(),
            max_instructions=budget,
            warmup_instructions=20_000,
            trace_window=0,
        )
        assert _stats_bytes(windowed) == _stats_bytes(monolithic)

    def test_truncated_window_payload_is_a_clean_miss(self, tmp_path):
        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        clear_trace_memo()
        kwargs = dict(max_instructions=2_000)
        first = simulate(
            program, BaselinePolicy(), trace_window=512, trace_cache=cache, **kwargs
        )
        path = cache.path_for(trace_fingerprint(program, 2_000))
        payload = path.read_bytes()
        path.write_bytes(payload[:-10])  # chop the last window's tail

        clear_trace_memo()  # the corrupted file must be consulted, not the memo
        reset_trace_events()
        again = simulate(
            program, BaselinePolicy(), trace_window=512, trace_cache=cache, **kwargs
        )
        assert trace_events["disk_misses"] == 1  # counted, not crashed
        assert trace_events["emulations"] == 1  # re-emulated...
        assert trace_events["disk_stores"] == 1  # ...and re-stored
        assert _stats_bytes(first) == _stats_bytes(again)

    def test_old_format_trace_files_are_invalidated(self, tmp_path):
        """A pre-window (format 1) file has no window table; the format
        bump turns it into a miss instead of a misread."""
        import sys

        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        fingerprint = trace_fingerprint(program, 1_000)
        path = cache.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        assert TRACE_FORMAT_VERSION > 1
        header = {"format": 1, "length": 0, "byteorder": sys.byteorder}
        path.write_bytes(json.dumps(header).encode() + b"\n")
        assert cache.load(fingerprint, program) is None
        assert cache.open_windows(fingerprint, program) is None
        assert cache.misses == 2

    def test_uncached_streaming_grid_emulates_once_per_program(self):
        """Budgets above the window must not regress the emulate-once
        guarantee when no disk cache is configured: repeat cells replay
        from the in-process memo of compact encoded columns."""
        program = build_benchmark("gzip")
        kwargs = dict(
            max_instructions=20_000, warmup_instructions=500, trace_window=8_192
        )
        clear_trace_memo()
        reset_trace_events()
        simulate(program, BaselinePolicy(), **kwargs)
        second = simulate(program, NonEmptyPolicy(), **kwargs)
        assert trace_events["emulations"] == 1
        assert trace_events["memo_hits"] == 1
        clear_trace_memo()
        reference = simulate(program, NonEmptyPolicy(), live_emulation=True, **kwargs)
        assert _stats_bytes(second) == _stats_bytes(reference)

    def test_stored_layout_never_defeats_the_requested_bound(self, tmp_path):
        """A cache warmed monolithically (or at any other window size)
        must be re-chunked to the requesting run's window size — serving
        the stored layout verbatim would silently unbound decode memory."""
        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        budget = 3_000
        clear_trace_memo()
        simulate(
            program,
            BaselinePolicy(),
            max_instructions=budget,
            trace_window=0,  # stored as one monolithic window
            trace_cache=cache,
        )
        reset_trace_events()
        stream = get_trace_stream(program, budget, window_size=256, cache=cache)
        first = stream.next_window()
        assert trace_events["disk_hits"] == 1
        assert first is not None and first.length == 256
        stream = get_trace_stream(program, budget, window_size=256, cache=cache)
        core = OutOfOrderCore(stream, policy=BaselinePolicy())
        core.run()
        assert core.max_resident_windows <= 2

    def test_windowed_and_monolithic_stores_interoperate(self, tmp_path):
        """One fingerprint serves both access patterns: a windowed store
        loads monolithically and vice versa."""
        program = build_benchmark("gzip")
        cache = TraceCache(tmp_path)
        clear_trace_memo()
        reference = simulate(
            program, BaselinePolicy(), max_instructions=2_000, trace_window=0
        )
        # Store windowed, read monolithic.
        simulate(
            program,
            BaselinePolicy(),
            max_instructions=2_000,
            trace_window=256,
            trace_cache=cache,
        )
        clear_trace_memo()
        reset_trace_events()
        monolithic = simulate(
            program,
            BaselinePolicy(),
            max_instructions=2_000,
            trace_window=0,
            trace_cache=cache,
        )
        assert trace_events["disk_hits"] == 1
        assert trace_events["emulations"] == 0
        assert _stats_bytes(monolithic) == _stats_bytes(reference)


class TestTraceCacheBounding:
    """The trace cache's byte cap: LRU pruning with utime-on-hit recency."""

    def _trace(self):
        clear_trace_memo()
        return get_decoded_trace(build_benchmark("gzip"), 1_000)

    def test_byte_cap_evicts_least_recently_used(self, tmp_path):
        import os
        import time

        trace = self._trace()
        probe = TraceCache(tmp_path / "probe")
        size = probe.store("f" * 64, trace).stat().st_size
        cache = TraceCache(tmp_path / "cache", max_bytes=3 * size + size // 2)
        for index in range(5):
            path = cache.store(f"{index:064x}", trace)
            stamp = time.time() - 100 + index
            os.utime(path, (stamp, stamp))
        assert len(cache) == 3
        assert cache.evictions == 2
        survivors = {path.name for path in cache._entry_paths()}
        assert survivors == {f"{index:064x}.trace.bin" for index in (2, 3, 4)}

    def test_hits_refresh_recency(self, tmp_path):
        import os
        import time

        program = build_benchmark("gzip")
        trace = self._trace()
        probe = TraceCache(tmp_path / "probe")
        size = probe.store("f" * 64, trace).stat().st_size
        cache = TraceCache(tmp_path / "cache", max_bytes=2 * size + size // 2)
        fingerprint_a = trace_fingerprint(program, 1_000)
        path_a = cache.store(fingerprint_a, trace)
        path_b = cache.store("b" * 64, trace)
        for offset, path in ((-100, path_a), (-50, path_b)):
            stamp = time.time() + offset
            os.utime(path, (stamp, stamp))
        # The hit re-touches A, so the later store evicts B instead.
        assert cache.load(fingerprint_a, program) is not None
        cache.store("c" * 64, trace)
        survivors = {path.name for path in cache._entry_paths()}
        assert survivors == {f"{fingerprint_a}.trace.bin", "c" * 64 + ".trace.bin"}

    def test_cache_stats_reports_traffic_and_size(self, tmp_path):
        program = build_benchmark("gzip")
        trace = self._trace()
        cache = TraceCache(tmp_path, max_bytes=1 << 30)
        fingerprint = trace_fingerprint(program, 1_000)
        cache.store(fingerprint, trace)
        assert cache.load(fingerprint, program) is not None
        assert cache.load("0" * 64, program) is None
        report = cache.cache_stats()
        assert report["traces"] == 1
        assert report["total_bytes"] > 0
        assert report["max_bytes"] == 1 << 30
        assert report["hits"] == 1
        assert report["misses"] == 1
        assert report["stores"] == 1
        assert report["evictions"] == 0

    def test_rejects_nonpositive_byte_caps(self, tmp_path):
        with pytest.raises(ValueError):
            TraceCache(tmp_path, max_bytes=0)


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
        get_decoded_trace(program, 1_000, cache=cache)
        assert cache.stores == 1

        import repro.uarch.trace as trace_module

        monkeypatch.setattr(
            trace_module, "_emulator_code_digest", lambda: "0" * 64
        )
        clear_trace_memo()
        reset_trace_events()
        get_decoded_trace(program, 1_000, cache=cache)
        # The edited-emulator fingerprint cannot resurrect the old trace.
        assert trace_events["disk_hits"] == 0
        assert trace_events["emulations"] == 1

    def test_instrumented_programs_have_distinct_fingerprints(self):
        plain = build_benchmark("gzip")
        hinted = _program("gzip", "noop")
        assert trace_fingerprint(plain, 1_000) != trace_fingerprint(hinted, 1_000)

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
    """The per-opcode decode table agrees with ``Instruction``'s own
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
        flags, latency, fu_ordinal, iq_tag, _ = DecodedTrace._static_decode(instr)
        for bit, name in predicates:
            assert bool(flags & bit) == getattr(instr, name), (opcode, name)
        assert bool(flags & F_NOP) == (opcode is Opcode.NOP)
        assert latency == instr.latency
        assert FU_ORDER[fu_ordinal] is instr.fu_class
        assert iq_tag == 16


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
        import os
        import time

        cache = ResultCache(tmp_path, max_entries=3)
        stats = simulate(build_benchmark("gzip"), max_instructions=500)
        for index in range(5):
            fingerprint = f"{index:064x}"
            path = cache.store(fingerprint, stats)
            # Deterministic, strictly increasing recency without sleeping;
            # all stamps sit in the past so a freshly stored cell is never
            # the pruning victim.
            stamp = time.time() - 100 + index
            os.utime(path, (stamp, stamp))
        assert len(cache) == 3
        assert cache.evictions == 2
        survivors = {path.name for path in cache._entry_paths()}
        assert survivors == {f"{index:064x}.json" for index in (2, 3, 4)}

    def test_cache_stats_reports_traffic_and_size(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=10)
        stats = simulate(build_benchmark("gzip"), max_instructions=500)
        cache.store("a" * 64, stats)
        assert cache.load("a" * 64) is not None
        assert cache.load("b" * 64) is None
        report = cache.cache_stats()
        assert report["entries"] == 1
        assert report["total_bytes"] > 0
        assert report["hits"] == 1
        assert report["misses"] == 1
        assert report["stores"] == 1
        assert report["max_entries"] == 10
