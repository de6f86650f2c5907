"""Shared fixtures for the test suite.

Simulation-based tests use deliberately small instruction budgets so the
whole suite stays fast; the benchmark harness under ``benchmarks/`` runs
the larger, figure-regenerating configurations.
"""

from __future__ import annotations

import pytest

from repro.core import CompilerConfig, compile_program
from repro.harness import RunConfig, SuiteRunner
from repro.isa import Instruction, Opcode, Program
from repro.isa.registers import int_reg
from repro.workloads import build_benchmark
from repro.workloads.traits import BenchmarkTraits


def make_counted_loop_program(trips: int = 10, body_adds: int = 4) -> Program:
    """A tiny runnable program: one counted loop plus a halting main."""
    program = Program(name="counted-loop")
    main = program.new_procedure("main")
    init = main.add_block("init")
    init.append(Instruction.load_imm(int_reg(1), trips))
    init.append(Instruction.load_imm(int_reg(2), 0))
    loop = main.add_block("loop")
    for index in range(body_adds):
        loop.append(Instruction.alu(Opcode.ADD, int_reg(2), [int_reg(2)], imm=index + 1))
    loop.append(Instruction.alu(Opcode.SUB, int_reg(1), [int_reg(1)], imm=1))
    loop.append(Instruction.branch_nez(int_reg(1), "loop"))
    done = main.add_block("done")
    done.append(Instruction.halt())
    program.validate()
    return program


def make_call_program() -> Program:
    """A program with a procedure call, a library call and a loop."""
    program = Program(name="call-program")
    leaf = program.new_procedure("leaf")
    body = leaf.add_block("leaf_body")
    body.append(Instruction.alu(Opcode.MUL, int_reg(3), [int_reg(3)], imm=3))
    body.append(Instruction.alu(Opcode.ADD, int_reg(4), [int_reg(3), int_reg(4)]))
    body.append(Instruction.ret())

    lib = program.new_procedure("libfn", is_library=True)
    lib_body = lib.add_block("lib_body")
    lib_body.append(Instruction.alu(Opcode.ADD, int_reg(5), [int_reg(5)], imm=1))
    lib_body.append(Instruction.ret())

    main = program.new_procedure("main")
    init = main.add_block("init")
    init.append(Instruction.load_imm(int_reg(1), 6))
    init.append(Instruction.load_imm(int_reg(3), 2))
    loop = main.add_block("loop")
    loop.append(Instruction.alu(Opcode.ADD, int_reg(6), [int_reg(6)], imm=1))
    loop.append(Instruction.call("leaf"))
    after = main.add_block("after_call")
    after.append(Instruction.alu(Opcode.SUB, int_reg(1), [int_reg(1)], imm=1))
    after.append(Instruction.branch_nez(int_reg(1), "loop"))
    tail = main.add_block("tail")
    tail.append(Instruction.call("libfn"))
    done = main.add_block("done")
    done.append(Instruction.halt())
    program.validate()
    return program


def synthetic_traits(seed: int, loops: int, dags: int, calls: int) -> BenchmarkTraits:
    """Traits of a small generated program with the given kernel counts;
    hypothesis properties draw ``seed`` and the counts."""
    return BenchmarkTraits(
        name="derived",
        seed=seed,
        outer_trips=2,
        num_loop_kernels=loops,
        num_dag_kernels=dags,
        num_call_kernels=calls,
        loop_body_size=(3, 6),
        loop_trip_count=(2, 4),
        dag_diamonds=(1, 2),
        dag_block_size=(2, 4),
        leaf_size=(2, 4),
        call_in_loop_prob=0.5,
        library_call_prob=0.5,
    )


@pytest.fixture
def counted_loop_program() -> Program:
    return make_counted_loop_program()


@pytest.fixture
def call_program() -> Program:
    return make_call_program()


@pytest.fixture(scope="session")
def gzip_program() -> Program:
    return build_benchmark("gzip")


@pytest.fixture(scope="session")
def gzip_compiled():
    return compile_program(build_benchmark("gzip"), CompilerConfig(), mode="noop")


@pytest.fixture(scope="session")
def tiny_runner() -> SuiteRunner:
    """A suite runner over two benchmarks with small budgets.

    The budget is the smallest at which the paper-shape orderings (e.g.
    Improved never losing more IPC than NOOP) hold: with the measurement
    clock fixed, shorter windows are dominated by which instructions the
    warm-up boundary happens to land on.
    """
    return SuiteRunner(
        RunConfig(
            benchmarks=("gzip", "mcf"),
            max_instructions=6000,
            warmup_instructions=1500,
        )
    )
