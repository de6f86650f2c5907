"""Tests for the functional emulator and the cycle-level pipeline."""

from __future__ import annotations

import pytest

from repro.core import CompilerConfig, compile_program
from repro.isa import Instruction, Opcode, Program
from repro.isa.registers import int_reg
from repro.techniques import (
    AbellaPolicy,
    BaselinePolicy,
    FixedLimitPolicy,
    NonEmptyPolicy,
    SoftwareDirectedPolicy,
)
from repro.uarch import FunctionalEmulator, OutOfOrderCore, ProcessorConfig, simulate
from repro.uarch.emulator import ProgramLayout
from tests.conftest import make_counted_loop_program


class TestFunctionalEmulator:
    def test_counted_loop_executes_expected_instruction_count(self):
        trips, body = 10, 4
        program = make_counted_loop_program(trips=trips, body_adds=body)
        emulator = FunctionalEmulator(program)
        trace = list(emulator.run(max_instructions=10_000))
        # init (2) + trips * (body + sub + bnez) + halt
        assert len(trace) == 2 + trips * (body + 2) + 1
        assert trace[-1].static.is_halt

    def test_loop_branch_outcomes(self):
        program = make_counted_loop_program(trips=5, body_adds=1)
        emulator = FunctionalEmulator(program)
        branches = [d for d in emulator.run(max_instructions=1000) if d.is_branch]
        assert [d.taken for d in branches] == [True, True, True, True, False]

    def test_register_semantics(self):
        program = make_counted_loop_program(trips=3, body_adds=2)
        emulator = FunctionalEmulator(program)
        list(emulator.run(max_instructions=1000))
        # r2 accumulates (1 + 2) per iteration over 3 iterations.
        assert emulator.registers[2] == 9
        assert emulator.registers[1] == 0  # counter ran down

    def test_memory_roundtrip(self):
        program = Program(name="mem")
        main = program.new_procedure("main")
        block = main.add_block("entry")
        block.append(Instruction.load_imm(int_reg(1), 0x1234))
        block.append(Instruction.load_imm(int_reg(2), 0x200000))
        block.append(Instruction.store(int_reg(1), int_reg(2), 8))
        block.append(Instruction.load(int_reg(3), int_reg(2), 8))
        block.append(Instruction.halt())
        emulator = FunctionalEmulator(program)
        trace = list(emulator.run())
        assert emulator.registers[3] == 0x1234
        stores = [d for d in trace if d.is_store]
        loads = [d for d in trace if d.is_load]
        assert stores[0].mem_address == loads[0].mem_address == 0x200008

    def test_run_reports_addresses_only_for_memory_ops_and_bool_outcomes(self):
        """``mem_address`` is None off memory operations and an int on
        them, an address of 0 included; ``taken`` is a ``bool``."""
        program = Program(name="contract")
        main = program.new_procedure("main")
        entry = main.add_block("entry")
        entry.append(Instruction.load(int_reg(1), int_reg(0), 0))
        entry.append(Instruction.store(int_reg(1), int_reg(0), 8))
        entry.append(Instruction.alu(Opcode.ADD, int_reg(2), [int_reg(1)], imm=1))
        entry.append(Instruction.branch_nez(int_reg(2), "done"))
        main.add_block("skipped").append(Instruction(opcode=Opcode.NOP))
        main.add_block("done").append(Instruction.halt())
        trace = list(FunctionalEmulator(program).run())
        assert [d.mem_address for d in trace] == [0, 8, None, None, None]
        assert [type(d.mem_address) for d in trace[:2]] == [int, int]
        assert [d.taken for d in trace] == [False, False, False, True, False]
        assert {type(d.taken) for d in trace} == {bool}

    def test_uninitialised_memory_is_deterministic(self):
        program = make_counted_loop_program()
        a = FunctionalEmulator(program)
        b = FunctionalEmulator(program)
        assert a.read_memory(0xABCDE0) == b.read_memory(0xABCDE0)

    def test_call_and_return(self, call_program):
        emulator = FunctionalEmulator(call_program)
        trace = list(emulator.run(max_instructions=10_000))
        calls = [d for d in trace if d.static.is_call]
        rets = [d for d in trace if d.static.is_return]
        assert len(calls) == len(rets) == 7  # 6 leaf calls + 1 library call
        assert trace[-1].static.is_halt

    def test_instruction_cap(self):
        program = make_counted_loop_program(trips=10_000)
        emulator = FunctionalEmulator(program)
        trace = list(emulator.run(max_instructions=500))
        assert len(trace) == 500

    def test_layout_assigns_unique_pcs(self, call_program):
        layout = ProgramLayout.for_program(call_program)
        pcs = list(layout.instruction_pc.values())
        assert len(pcs) == len(set(pcs)) == call_program.num_instructions

    def test_hint_noops_appear_in_trace(self, counted_loop_program):
        result = compile_program(counted_loop_program, CompilerConfig(), mode="noop")
        emulator = FunctionalEmulator(result.instrumented_program)
        trace = list(emulator.run(max_instructions=10_000))
        assert any(d.is_hint for d in trace)


class TestPipelineBasics:
    def test_all_instructions_commit(self, counted_loop_program):
        stats = simulate(counted_loop_program, BaselinePolicy(), max_instructions=5000)
        emulator = FunctionalEmulator(counted_loop_program)
        expected = len(list(emulator.run(max_instructions=5000)))
        assert stats.committed_instructions == expected

    def test_ipc_bounded_by_commit_width(self, gzip_program):
        config = ProcessorConfig.hpca2005()
        stats = simulate(gzip_program, BaselinePolicy(), config=config, max_instructions=3000)
        assert 0 < stats.ipc <= config.commit_width

    def test_dependent_chain_takes_one_cycle_per_instruction(self):
        program = Program(name="chain")
        main = program.new_procedure("main")
        block = main.add_block("entry")
        block.append(Instruction.load_imm(int_reg(1), 1))
        for _ in range(20):
            block.append(Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)], imm=1))
        block.append(Instruction.halt())
        stats = simulate(program, BaselinePolicy(), max_instructions=100)
        assert stats.cycles >= 20  # serial chain cannot go faster

    def test_hint_noops_not_counted_as_committed(self, counted_loop_program):
        result = compile_program(counted_loop_program, CompilerConfig(), mode="noop")
        base = simulate(counted_loop_program, BaselinePolicy(), max_instructions=5000)
        soft = simulate(
            result.instrumented_program, SoftwareDirectedPolicy(), max_instructions=6000
        )
        assert soft.hint_noops_stripped > 0
        assert soft.committed_instructions == base.committed_instructions

    def test_warmup_resets_measurement(self, gzip_program):
        cold = simulate(gzip_program, BaselinePolicy(), max_instructions=4000)
        warm = simulate(
            gzip_program, BaselinePolicy(), max_instructions=4000, warmup_instructions=2000
        )
        assert warm.committed_instructions == cold.committed_instructions - 2000
        assert warm.l1d_miss_rate <= cold.l1d_miss_rate + 1e-9

    def test_stats_summary_keys(self, gzip_program):
        stats = simulate(gzip_program, BaselinePolicy(), max_instructions=1500)
        summary = stats.summary()
        for key in ("ipc", "avg_iq_occupancy", "iq_banks_off_fraction", "l1d_miss_rate"):
            assert key in summary

    def test_max_cycles_cap(self, gzip_program):
        stats = simulate(
            gzip_program, BaselinePolicy(), max_instructions=50_000, max_cycles=200
        )
        assert stats.cycles <= 200


class TestPoliciesInPipeline:
    def test_baseline_never_stalls_on_region_limit(self, gzip_program):
        stats = simulate(gzip_program, BaselinePolicy(), max_instructions=3000)
        assert stats.iq_dispatch_stall_cycles == 0
        assert stats.iq_banks_off_fraction == 0.0

    def test_fixed_limit_reduces_occupancy(self, gzip_program):
        base = simulate(gzip_program, BaselinePolicy(), max_instructions=3000)
        limited = simulate(gzip_program, FixedLimitPolicy(16), max_instructions=3000)
        assert limited.avg_iq_occupancy < base.avg_iq_occupancy
        assert limited.iq_banks_off_fraction > 0.0

    def test_nonempty_matches_baseline_timing(self, gzip_program):
        base = simulate(gzip_program, BaselinePolicy(), max_instructions=3000)
        gated = simulate(gzip_program, NonEmptyPolicy(), max_instructions=3000)
        assert gated.cycles == base.cycles
        assert gated.iq_cmp_gated < gated.iq_cmp_full

    def test_software_policy_applies_hints(self, gzip_compiled):
        policy = SoftwareDirectedPolicy("noop")
        stats = simulate(
            gzip_compiled.instrumented_program, policy, max_instructions=3000
        )
        assert policy.hints_applied > 0
        assert stats.hint_noops_stripped > 0

    def test_extension_tags_seen_by_pipeline(self, gzip_program):
        result = compile_program(gzip_program, CompilerConfig(), mode="extension")
        policy = SoftwareDirectedPolicy("extension")
        stats = simulate(result.instrumented_program, policy, max_instructions=3000)
        assert stats.tagged_instructions_seen > 0
        assert stats.hint_noops_stripped == 0

    def test_abella_adapts_limit(self, gzip_program):
        policy = AbellaPolicy(interval_cycles=128)
        simulate(gzip_program, policy, max_instructions=4000)
        assert policy.decisions  # at least one resize decision happened
        assert policy.current_limit <= 80

    def test_software_beats_abella_on_improved_variant(self):
        """On a call-heavy benchmark, Improved loses no more IPC than abella.

        vortex is the paper's showcase for the inter-procedural refinement,
        so the ordering is asserted where the paper's mechanism applies
        rather than on the loop-parallel workloads.
        """
        from repro.workloads import build_benchmark

        program = build_benchmark("vortex")
        base = simulate(program, BaselinePolicy(), max_instructions=4000,
                        warmup_instructions=1000)
        improved = compile_program(program, CompilerConfig(), mode="improved")
        soft = simulate(improved.instrumented_program, SoftwareDirectedPolicy("improved"),
                        max_instructions=4000, warmup_instructions=1000)
        abella = simulate(program, AbellaPolicy(), max_instructions=4000,
                          warmup_instructions=1000)
        soft_loss = 1 - soft.ipc / base.ipc
        abella_loss = 1 - abella.ipc / base.ipc
        assert soft_loss <= abella_loss + 0.02
