"""Tests for the compiler analysis and instrumentation (:mod:`repro.core`)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import CompilerConfig, compile_program, pipeline
from repro.core.dag_analysis import PathSummary, analyse_block, analyse_dag_region
from repro.core.instrument import ALL_MODES, instrument_program
from repro.core.interprocedural import (
    apply_interprocedural_refinement,
    summarise_call_sites,
)
from repro.core.loop_analysis import analyse_loop_body
from repro.core.pipeline import analyse_program, compute_preheader_hints
from repro.core.pseudo_queue import PseudoIssueQueue
from repro.core.report import compare_compile_times, measure_baseline_compile
from repro.cfg import build_cfg, find_dag_regions, find_natural_loops
from repro.harness import RunConfig, SuiteRunner
from repro.isa import Instruction, Opcode
from repro.isa.opcodes import FuClass
from repro.isa.registers import int_reg as r
from repro.uarch.trace import _program_content, program_digest
from repro.workloads import SPECINT_BENCHMARKS, build_benchmark
from tests.conftest import make_call_program, make_counted_loop_program


class TestCompilerConfig:
    def test_load_latency_includes_cache_hit(self):
        config = CompilerConfig()
        load = Instruction.load(r(1), r(2), 0)
        assert config.instruction_latency(load) == 1 + config.assumed_l1_hit_latency

    def test_clamp_applies_margin_and_bounds(self):
        config = CompilerConfig(sizing_margin=1.0, sizing_slack=0)
        assert config.clamp_requirement(500) == config.max_iq_entries
        assert config.clamp_requirement(0) == config.min_hint_value
        assert config.clamp_requirement(20) == 20

    def test_margin_enlarges_requirements(self):
        tight = CompilerConfig(sizing_margin=1.0, sizing_slack=0)
        loose = CompilerConfig(sizing_margin=2.0, sizing_slack=0)
        assert loose.clamp_requirement(20) > tight.clamp_requirement(20)


class TestPseudoIssueQueue:
    def test_empty_sequence(self):
        schedule = PseudoIssueQueue(CompilerConfig()).schedule([])
        assert schedule.entries_needed == 0
        assert schedule.schedule_length == 0

    def test_serial_chain_needs_one_entry(self):
        instrs = [Instruction.alu(Opcode.ADD, r(1), [r(1)], imm=1) for _ in range(6)]
        schedule = PseudoIssueQueue(CompilerConfig()).schedule(instrs)
        assert schedule.entries_needed == 1

    def test_independent_instructions_limited_by_issue_width(self):
        instrs = [
            Instruction.alu(Opcode.ADD, r(i % 20 + 1), [r(21)], imm=i) for i in range(16)
        ]
        config = CompilerConfig()
        schedule = PseudoIssueQueue(config).schedule(instrs)
        # Six integer ALUs bound the per-cycle issue, not the width of 8.
        assert schedule.entries_needed >= config.fu_counts[FuClass.INT_ALU]

    def test_fu_contention_serialises_multiplies(self):
        config = CompilerConfig()
        muls = [Instruction.alu(Opcode.MUL, r(i + 1), [r(20)], imm=3) for i in range(6)]
        schedule = PseudoIssueQueue(config).schedule(muls)
        cycles_with_issue = {c for c in schedule.issue_cycle}
        assert len(cycles_with_issue) >= 2  # only 3 multipliers available

    def test_entry_latency_delays_dependent_issue(self):
        config = CompilerConfig()
        instrs = [Instruction.alu(Opcode.ADD, r(2), [r(1)])]
        delayed = PseudoIssueQueue(config).schedule(instrs, entry_latency={r(1): 5})
        immediate = PseudoIssueQueue(config).schedule(instrs)
        assert delayed.issue_cycle[0] > immediate.issue_cycle[0]

    def test_hints_are_ignored(self):
        instrs = [Instruction.hint(10), Instruction.alu(Opcode.ADD, r(1), [r(1)])]
        schedule = PseudoIssueQueue(CompilerConfig()).schedule(instrs)
        assert len(schedule.issue_cycle) == 1

    def test_exit_latency_reports_pending_writebacks(self):
        config = CompilerConfig()
        instrs = [
            Instruction.alu(Opcode.ADD, r(1), [r(5)]),
            Instruction.alu(Opcode.MUL, r(2), [r(1)], imm=3),
        ]
        schedule = PseudoIssueQueue(config).schedule(instrs)
        assert r(2) in schedule.exit_latency


class TestDagAnalysis:
    def test_single_block_requirement(self, counted_loop_program):
        block = counted_loop_program.procedures["main"].find_block("loop")
        requirement = analyse_block(block, CompilerConfig(), "main")
        assert requirement.raw_entries >= 1
        assert requirement.source == "dag"
        assert requirement.entries >= requirement.raw_entries  # margin applied

    def test_region_analysis_covers_all_blocks(self):
        program = make_call_program()
        procedure = program.procedures["main"]
        cfg = build_cfg(procedure)
        loops = find_natural_loops(cfg)
        regions = find_dag_regions(cfg, loops)
        config = CompilerConfig()
        analysed: set[str] = set()
        for region in regions:
            analysed |= set(analyse_dag_region(cfg, region, config))
        loop_blocks = {label for loop in loops for label in loop.body}
        expected = {b.label for b in procedure.blocks} - loop_blocks
        assert analysed == expected

    def test_path_summary_merging(self):
        # Summaries are keyed by register slot: r1 is 1, f2 is 34.
        a = PathSummary(latency={1: 3})
        b = PathSummary(latency={1: 5, 34: 1})
        merged = a.joined_with(b, "max")
        assert merged.latency[1] == 5 and merged.latency[34] == 1
        assert a.joined_with(b, "ready").latency == {}


class TestLoopAnalysis:
    def test_no_recurrence_requests_full_queue(self):
        config = CompilerConfig()
        body = [Instruction.alu(Opcode.ADD, r(i + 1), [r(20)], imm=1) for i in range(4)]
        requirement = analyse_loop_body(body, config)
        assert requirement.raw_entries == config.max_iq_entries
        assert requirement.initiation_interval == 0.0

    def test_empty_body(self):
        config = CompilerConfig()
        requirement = analyse_loop_body([], config)
        assert requirement.entries == config.min_hint_value

    def test_counter_loop_has_unit_recurrence(self):
        config = CompilerConfig()
        body = [
            Instruction.alu(Opcode.SUB, r(1), [r(1)], imm=1),
            Instruction.branch_nez(r(1), "loop"),
        ]
        requirement = analyse_loop_body(body, config)
        assert requirement.initiation_interval == 1.0

    def test_recurrence_through_two_carried_edges_has_half_integer_interval(self):
        config = CompilerConfig()
        body = [
            Instruction.alu(Opcode.MUL, r(1), [r(2)]),          # 0: r2 from 1, carried
            Instruction.alu(Opcode.ADD, r(2), [r(3)], imm=1),   # 1: r3 from 2, carried
            Instruction.alu(Opcode.ADD, r(3), [r(1)], imm=1),   # 2: r1 from 0
            Instruction.alu(Opcode.ADD, r(5), [r(5)], imm=1),   # 3: a 1-cycle recurrence
        ]
        # The critical cycle 0 -> 2 -> 1 -> 0 spends 3 + 1 + 1 = 5 cycles
        # over two iterations.
        requirement = analyse_loop_body(body, config)
        assert requirement.initiation_interval == 2.5
        assert requirement.cds == [0, 1, 2, 3]

    def test_requirement_clamped_to_queue_size(self):
        config = CompilerConfig()
        body = [Instruction.alu(Opcode.ADD, r(1), [r(1)], imm=1)]
        body += [
            Instruction.alu(Opcode.ADD, r(2 + i % 18), [r(20)], imm=1) for i in range(200)
        ]
        requirement = analyse_loop_body(body, config)
        assert requirement.entries <= config.max_iq_entries

    def test_resource_bound_raises_initiation_interval(self):
        config = CompilerConfig()
        # One-cycle recurrence but 40 instructions per iteration: the 8-wide
        # issue bounds the achievable rate at 5 cycles per iteration.
        body = [Instruction.alu(Opcode.ADD, r(1), [r(1)], imm=1)]
        body += [Instruction.alu(Opcode.ADD, r(2 + i % 18), [r(2 + i % 18)], imm=1) for i in range(39)]
        requirement = analyse_loop_body(body, config)
        assert requirement.initiation_interval >= 40 / config.issue_width - 1e-6


class TestInstrumentation:
    def test_noop_mode_inserts_hints(self, counted_loop_program):
        config = CompilerConfig()
        result = compile_program(counted_loop_program, config, mode="noop")
        stats = result.instrumentation
        assert stats.hints_inserted > 0
        assert stats.instructions_tagged == 0
        hints = result.instrumented_program.count_opcode(Opcode.HINT)
        assert hints == stats.hints_inserted

    def test_extension_mode_tags_instead(self, counted_loop_program):
        result = compile_program(counted_loop_program, CompilerConfig(), mode="extension")
        stats = result.instrumentation
        assert stats.instructions_tagged > 0
        assert stats.hints_inserted == 0
        assert result.instrumented_program.count_opcode(Opcode.HINT) == 0

    def test_original_program_is_untouched(self, counted_loop_program):
        before = counted_loop_program.num_instructions
        compile_program(counted_loop_program, CompilerConfig(), mode="noop")
        assert counted_loop_program.num_instructions == before
        assert counted_loop_program.count_opcode(Opcode.HINT) == 0

        # Every mode of two benchmarks through one runner, which shares
        # one analysis per benchmark: the source keeps its content, and
        # no program shares a mutable part with the source or another's.
        names = ("gzip", "gcc")
        runner = SuiteRunner(RunConfig(benchmarks=names))
        for name in names:
            source = build_benchmark(name)
            source_digest = program_digest(source)
            programs = {
                mode: runner.compilation(name, mode).instrumented_program
                for mode in ALL_MODES
            }
            assert program_digest(build_benchmark(name)) == source_digest
            seen = _mutable_parts(source)
            for mode, program in programs.items():
                parts = _mutable_parts(program)
                assert not parts & seen, (name, mode)
                seen |= parts

            improved_digest = program_digest(programs["improved"])
            tagged = next(
                instr
                for procedure in programs["extension"].procedures.values()
                for instr in procedure.instructions()
                if instr.iq_tag is not None
            )
            tagged.iq_tag += 1
            assert program_digest(programs["improved"]) == improved_digest
            assert program_digest(build_benchmark(name)) == source_digest

    def test_loop_hint_is_in_preheader_not_header(self, counted_loop_program):
        result = compile_program(counted_loop_program, CompilerConfig(), mode="noop")
        instrumented_main = result.instrumented_program.procedures["main"]
        loop_block = instrumented_main.find_block("loop")
        init_block = instrumented_main.find_block("init")
        assert not any(i.is_hint for i in loop_block.instructions)
        assert any(i.is_hint for i in init_block.instructions)
        assert ("main", "init") in result.preheader_hints

    def test_library_call_requests_maximum_size(self, call_program):
        config = CompilerConfig()
        result = compile_program(call_program, config, mode="noop")
        tail = result.instrumented_program.procedures["main"].find_block("tail")
        hints = [i for i in tail.instructions if i.is_hint]
        assert any(h.hint_value == config.max_iq_entries for h in hints)

    def test_library_procedures_not_analysed(self, call_program):
        result = compile_program(call_program, CompilerConfig(), mode="noop")
        assert not any(key[0] == "libfn" for key in result.block_requirements)
        lib_body = result.instrumented_program.procedures["libfn"].blocks[0]
        assert not any(i.is_hint for i in lib_body.instructions)

    def test_unknown_mode_rejected(self, counted_loop_program):
        with pytest.raises(ValueError):
            compile_program(counted_loop_program, CompilerConfig(), mode="bogus")
        with pytest.raises(ValueError):
            instrument_program(counted_loop_program, {}, CompilerConfig(), mode="bogus")

    def test_redundant_hints_skipped(self, gzip_compiled):
        assert gzip_compiled.instrumentation.hints_skipped_redundant >= 0
        # Every analysed DAG block either emitted a hint or was skipped as
        # redundant; never silently dropped.
        emitted = gzip_compiled.instrumentation.hints_inserted
        assert emitted > 0


def _mutable_parts(program) -> set[int]:
    """``id`` of every mutable object ``program`` is made of: itself, its
    procedures, blocks, their lists, and the instructions."""
    parts = {id(program), id(program.procedures)}
    for procedure in program.procedures.values():
        parts |= {id(procedure), id(procedure.blocks)}
        for block in procedure.blocks:
            parts |= {id(block), id(block.instructions)}
            parts.update(map(id, block.instructions))
    return parts


class TestPipeline:
    def test_analysis_covers_all_analysable_procedures(self, gzip_program):
        analysis = analyse_program(gzip_program, CompilerConfig())
        analysed_procs = {key[0] for key in analysis.block_requirements}
        expected = {p.name for p in gzip_program.analysable_procedures()}
        assert analysed_procs == expected
        assert len(analysis.procedures) == len(expected)
        assert analysis.loop_requirements  # synthetic benchmarks always contain loops

    def test_preheader_hints_reference_real_blocks(self, gzip_compiled):
        program = gzip_compiled.program
        for (proc_name, label), value in gzip_compiled.preheader_hints.items():
            assert program.procedures[proc_name].find_block(label) is not None
            assert value >= 1

    def test_requirements_within_physical_bounds(self, gzip_compiled):
        config = CompilerConfig()
        for requirement in gzip_compiled.block_requirements.values():
            assert config.min_hint_value <= requirement.entries <= config.max_iq_entries

    def test_mean_requirement_positive(self, gzip_compiled):
        assert gzip_compiled.mean_requirement > 0

    def test_improved_mode_never_shrinks_requirements(self, gzip_program):
        config = CompilerConfig()
        extension = compile_program(gzip_program, config, mode="extension")
        improved = compile_program(gzip_program, config, mode="improved")
        for key, requirement in extension.block_requirements.items():
            refined = improved.block_requirements.get(key)
            if refined is not None:
                assert refined.entries >= requirement.entries


class TestInterprocedural:
    @staticmethod
    def _summary(program):
        config = CompilerConfig()
        loops = analyse_program(program, config).loops_by_procedure
        return summarise_call_sites(program, config, loops)

    def test_call_sites_found(self, call_program):
        summary = self._summary(call_program)
        callees = {site.callee for site in summary.call_sites}
        assert callees == {"leaf", "libfn"}
        leaf_sites = [s for s in summary.call_sites if s.callee == "leaf"]
        assert leaf_sites[0].in_loop
        assert leaf_sites[0].loop_header == "loop"

    def test_library_callee_never_hot(self, call_program):
        summary = self._summary(call_program)
        assert "libfn" not in summary.hot_procedures
        assert "leaf" in summary.hot_procedures

    def test_refinement_enlarges_call_site_requirements(self, call_program):
        config = CompilerConfig()
        analysis = analyse_program(call_program, config)
        requirements = analysis.block_requirements
        refined = apply_interprocedural_refinement(
            call_program, requirements, config, analysis.loops_by_procedure
        )
        key = ("main", "loop")
        assert refined[key].entries >= requirements[key].entries


class TestCompileTimeReport:
    def test_baseline_time_positive(self, gzip_program):
        assert measure_baseline_compile(gzip_program) > 0

    def test_report_row_contents(self, counted_loop_program):
        report = compare_compile_times(counted_loop_program, CompilerConfig())
        assert report.program_name == "counted-loop"
        assert report.limited_seconds > 0
        assert report.hints_emitted > 0
        assert report.num_blocks == counted_loop_program.num_basic_blocks


def _golden_digest(program) -> str:
    """The digest :data:`GOLDEN_INSTRUMENTED_DIGESTS` records: SHA-256
    over the joined ``repr`` of each ``_program_content`` item.  That was
    ``program_digest``'s encoding when the table was recorded; the trace
    module has since moved to a cheaper one, and this rendering keeps
    pinning the same programs."""
    content = _program_content(program)
    return hashlib.sha256("".join(map(repr, content)).encode()).hexdigest()


#: :func:`_golden_digest` of every shipped benchmark's instrumented
#: program, per hint mode, as the compiler emitted it with the default
#: ``CompilerConfig``.  Recorded before the recurrence solver became
#: exact, so any change to the loop analysis that moves a hint fails
#: here.  A deliberate change to the emitted hints re-records the table.
GOLDEN_INSTRUMENTED_DIGESTS = {
    ("gzip", "noop"): "92eb22b956cdc12b3a4b8296f4efe00978130ff1df872bc4e248b8d647bde5e5",
    ("gzip", "extension"): "4434334a612cbbc72d3fe5ae2375244a9a2618486253d5bf3dbedc18b017bfed",
    ("gzip", "improved"): "a037f1a47a7ffa7acf91e703b5a0c8b97ea52d27d896885e38191016284c7619",
    ("vpr", "noop"): "20420689c91e068b7b9851708877b34b19b7e39788b1137b094e8d4aa1fe4a14",
    ("vpr", "extension"): "5bfc0a277a6df1689531d670f36649c48ef6ded3578a3e26442d5a8f59c626fa",
    ("vpr", "improved"): "d8ecdee0bfa6639a193386c6f47c63997dca11bf1a50ce72cf87668b009d4d78",
    ("gcc", "noop"): "24a1e101c4304a006f7ad955a72b2545e78f710de37ceaaf7bcaf824ed322089",
    ("gcc", "extension"): "d5a58df373c7a733e5592fda3cb2cfe1f50ca4783a74c379f79b5bf24debc2c7",
    ("gcc", "improved"): "eb63964c33088d736fd93c01d28ac29c965c67d9cf15f1a0f53315678576f94e",
    ("mcf", "noop"): "07e63cf13e73f9d4d5ad8f88fb783c3b406dcce908093620ab9265e6a7a0aaa8",
    ("mcf", "extension"): "453f884a50fa5321bc80b8f5f3bff3f8f758c981e40e3b1d86283916ced69fe5",
    ("mcf", "improved"): "bd7a5537d8d65ffd2dcda105c4ccf3ba1dbe691a78e13ec48610ace17025753b",
    ("crafty", "noop"): "f65a41205406fffb0a8954b82decacd5becd82d38d11adc34fafd3c9744825ed",
    ("crafty", "extension"): "cd86e0747b50c2a23f321b34f60d0e97b29a93c467706514a08d5073f7180413",
    ("crafty", "improved"): "cbeb24f61a4e64054752443e50e2eefe410211c06019a5d1abade09d6008151a",
    ("parser", "noop"): "743cc401d1c804ac39caf6c6c2d13bea8af64cc8a26916dc034f7ee453d62bab",
    ("parser", "extension"): "77688a654e538e528011295f038e7e9bc883cb0f3cf18416160cc1523ea4a557",
    ("parser", "improved"): "54c89ce9d382f9a90a765136079b0557d73971adbc891b2a4117ee496bc8dcfe",
    ("perlbmk", "noop"): "9d48a3891e0905e7cedfa4128ead5fa1c34aadbcd638e1193903b7f0eb0d8dbe",
    ("perlbmk", "extension"): "691be0625d5f47a34d0e14a6719592b1a2d1ca6b4a87235c7d4359b3796d2475",
    ("perlbmk", "improved"): "43152e9eea4a5a9edd41fb231ed5307691b923000eda38be9b8078b80042844c",
    ("gap", "noop"): "13e79a1bdf51acfa1a9ac1e8f3f58d939d350ff2abc794b922643cddf276640e",
    ("gap", "extension"): "8cf5c7f02039285585a5f5ccffcf9742a1119e9261f2118800460dce38b79322",
    ("gap", "improved"): "8094b4c1efd958133fc83fd6acfa243a398eb894d35dff2b5db3cb106789d5b8",
    ("vortex", "noop"): "19ce40354c99075fa13e4275fde61f0987a1e64ab8665608c45c3960022d989d",
    ("vortex", "extension"): "d13968365e182dd6b0e6a22c0ce60117fe496cf9938e26445a721223728e1091",
    ("vortex", "improved"): "cf576238bacd476f1fd585a68549158f8f248cd136c6970c16dc8ef9327a8b2b",
    ("bzip2", "noop"): "25ca98fe518364e9ae13aa5d96ccd0025923644ea424cf12d6e1169f2f1d1d5e",
    ("bzip2", "extension"): "867a01f05a4d1f7be40aefee81bd47069d04b0cabf4c57d741b61c94c6830863",
    ("bzip2", "improved"): "817325d39163d9e1b95e227b18b250b960f0cdf5dd3c1a35e6b5f54b043b2acf",
    ("twolf", "noop"): "1e4e45060b21f048850da3a8fdf7f1a730104be04d6e87a45035f61adf9e191a",
    ("twolf", "extension"): "5ed9a0f8ebe2b7c0b21e4ee013eed334be0df69b64998c268f1f2604e53c9a70",
    ("twolf", "improved"): "9bd68082836136d34c62fb1565237faee8d6dc5b9bf03f222bef4ea863662ff3",
}


class TestGoldenHints:
    @pytest.mark.parametrize("name", SPECINT_BENCHMARKS)
    def test_instrumented_programs_match_the_recorded_digests(self, name):
        program = build_benchmark(name)
        for mode in ALL_MODES:
            compiled = compile_program(program, CompilerConfig(), mode=mode)
            digest = _golden_digest(compiled.instrumented_program)
            assert digest == GOLDEN_INSTRUMENTED_DIGESTS[(name, mode)], mode


class TestSharedAnalysis:
    """A runner analyses each benchmark once, whichever mode comes first,
    and every mode's program is what a fresh compile emits."""

    BENCHMARKS = ("gzip", "gcc", "mcf")

    @pytest.mark.parametrize(
        "order", [ALL_MODES, ALL_MODES[::-1]], ids=["noop-first", "improved-first"]
    )
    def test_runner_analyses_each_benchmark_once(self, order, monkeypatch):
        analysed = []
        analyse = pipeline.analyse_program

        def counted(program, config):
            analysed.append(program.name)
            return analyse(program, config)

        monkeypatch.setattr(pipeline, "analyse_program", counted)
        runner = SuiteRunner(RunConfig(benchmarks=self.BENCHMARKS))
        for name in self.BENCHMARKS:
            for mode in order:
                compiled = runner.compilation(name, mode)
                digest = _golden_digest(compiled.instrumented_program)
                assert digest == GOLDEN_INSTRUMENTED_DIGESTS[(name, mode)], (name, mode)
        assert sorted(analysed) == sorted(self.BENCHMARKS)
        assert (runner.compile_count, runner.analysis_count) == (9, 3)

    def test_analysis_of_another_program_or_config_is_rejected(self, gzip_program):
        config = CompilerConfig()
        analysis = analyse_program(gzip_program, config)
        with pytest.raises(ValueError):
            compile_program(build_benchmark("mcf"), config, analysis=analysis)
        with pytest.raises(ValueError):
            compile_program(build_benchmark("gzip", fresh=True), config, analysis=analysis)
        with pytest.raises(ValueError):
            compile_program(gzip_program, CompilerConfig(sizing_margin=2.0), analysis=analysis)
        # An equal config is the same input, whichever object carries it.
        shared = compile_program(gzip_program, CompilerConfig(), analysis=analysis)
        assert shared.analysis is analysis
