"""Unit tests for control-flow and dependence analysis (:mod:`repro.cfg`)."""

from __future__ import annotations

import pytest

from repro.cfg import (
    build_cfg,
    compute_dominators,
    find_dag_regions,
    find_natural_loops,
    immediate_dominators,
)
from repro.cfg.ddg import decode, dependences
from repro.cfg.natural_loops import blocks_in_any_loop
from repro.isa import Instruction, Opcode, Program
from repro.isa.registers import int_reg


def diamond_program() -> Program:
    """entry -> (then | else) -> join -> exit, no loops."""
    program = Program(name="diamond")
    main = program.new_procedure("main")
    entry = main.add_block("entry")
    entry.append(Instruction.alu(Opcode.CMP_EQ, int_reg(1), [int_reg(2)], imm=0))
    entry.append(Instruction.branch_nez(int_reg(1), "else_b"))
    then_b = main.add_block("then_b")
    then_b.append(Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(3)], imm=1))
    then_b.append(Instruction.jump("join"))
    else_b = main.add_block("else_b")
    else_b.append(Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(3)], imm=2))
    join = main.add_block("join")
    join.append(Instruction.alu(Opcode.ADD, int_reg(4), [int_reg(3)], imm=1))
    join.append(Instruction.halt())
    program.validate()
    return program


def nested_loop_program() -> Program:
    """An outer loop containing an inner loop."""
    program = Program(name="nested")
    main = program.new_procedure("main")
    init = main.add_block("init")
    init.append(Instruction.load_imm(int_reg(1), 4))
    outer = main.add_block("outer")
    outer.append(Instruction.load_imm(int_reg(2), 3))
    inner = main.add_block("inner")
    inner.append(Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(3)], imm=1))
    inner.append(Instruction.alu(Opcode.SUB, int_reg(2), [int_reg(2)], imm=1))
    inner.append(Instruction.branch_nez(int_reg(2), "inner"))
    latch = main.add_block("latch")
    latch.append(Instruction.alu(Opcode.SUB, int_reg(1), [int_reg(1)], imm=1))
    latch.append(Instruction.branch_nez(int_reg(1), "outer"))
    done = main.add_block("done")
    done.append(Instruction.halt())
    program.validate()
    return program


class TestControlFlowGraph:
    def test_diamond_edges(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        assert set(cfg.succ("entry")) == {"then_b", "else_b"}
        assert cfg.succ("then_b") == ["join"]
        assert cfg.succ("else_b") == ["join"]
        assert cfg.succ("join") == []
        assert set(cfg.pred("join")) == {"then_b", "else_b"}

    def test_reverse_postorder_starts_at_entry(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        order = cfg.reverse_postorder()
        assert order[0] == "entry"
        assert order.index("join") > order.index("then_b")

    def test_loop_back_edge_present(self, counted_loop_program):
        cfg = build_cfg(counted_loop_program.procedures["main"])
        assert "loop" in cfg.succ("loop")

    def test_call_block_falls_through(self, call_program):
        cfg = build_cfg(call_program.procedures["main"])
        assert cfg.succ("loop") == ["after_call"]

    def test_unknown_block_lookup_raises(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        with pytest.raises(KeyError):
            cfg.block("missing")


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        dominators = compute_dominators(cfg)
        for label, doms in dominators.items():
            assert "entry" in doms

    def test_branch_arms_do_not_dominate_join(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        dominators = compute_dominators(cfg)
        assert "then_b" not in dominators["join"]
        assert "else_b" not in dominators["join"]

    def test_immediate_dominators(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        idom = immediate_dominators(cfg)
        assert idom["then_b"] == "entry"
        assert idom["else_b"] == "entry"
        assert idom["join"] == "entry"

    def test_loop_header_dominates_body(self):
        cfg = build_cfg(nested_loop_program().procedures["main"])
        dominators = compute_dominators(cfg)
        assert "outer" in dominators["inner"]
        assert "outer" in dominators["latch"]


class TestNaturalLoops:
    def test_self_loop_body_is_only_the_header(self, counted_loop_program):
        cfg = build_cfg(counted_loop_program.procedures["main"])
        loops = find_natural_loops(cfg)
        assert len(loops) == 1
        assert loops[0].body == {"loop"}

    def test_nested_loops_detected_with_depths(self):
        cfg = build_cfg(nested_loop_program().procedures["main"])
        loops = find_natural_loops(cfg)
        assert len(loops) == 2
        by_header = {loop.header: loop for loop in loops}
        assert by_header["inner"].depth == 2
        assert by_header["outer"].depth == 1
        # Inner loop's blocks are excluded from the outer loop's analysis set.
        assert "inner" not in by_header["outer"].exclusive_body

    def test_loops_returned_innermost_first(self):
        cfg = build_cfg(nested_loop_program().procedures["main"])
        loops = find_natural_loops(cfg)
        assert loops[0].depth >= loops[-1].depth

    def test_loop_free_procedure_has_no_loops(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        assert find_natural_loops(cfg) == []

    def test_blocks_in_any_loop(self):
        cfg = build_cfg(nested_loop_program().procedures["main"])
        loops = find_natural_loops(cfg)
        assert blocks_in_any_loop(loops) == {"outer", "inner", "latch"}


class TestDagRegions:
    def test_diamond_is_one_region(self):
        cfg = build_cfg(diamond_program().procedures["main"])
        regions = find_dag_regions(cfg, [])
        assert len(regions) == 1
        assert set(regions[0].blocks) == {"entry", "then_b", "else_b", "join"}

    def test_loop_blocks_excluded(self, counted_loop_program):
        cfg = build_cfg(counted_loop_program.procedures["main"])
        loops = find_natural_loops(cfg)
        regions = find_dag_regions(cfg, loops)
        region_blocks = {label for region in regions for label in region.blocks}
        assert "loop" not in region_blocks
        assert "init" in region_blocks and "done" in region_blocks

    def test_post_call_block_starts_a_region(self, call_program):
        cfg = build_cfg(call_program.procedures["main"])
        loops = find_natural_loops(cfg)
        regions = find_dag_regions(cfg, loops)
        starts = {region.start for region in regions}
        assert "done" in starts  # follows the library call in "tail"

    def test_every_loop_free_block_assigned_exactly_once(self, call_program):
        cfg = build_cfg(call_program.procedures["main"])
        loops = find_natural_loops(cfg)
        regions = find_dag_regions(cfg, loops)
        assigned = [label for region in regions for label in region.blocks]
        assert len(assigned) == len(set(assigned))


def _dependences(instrs, loop_carried=False):
    return dependences([decode(instr) for instr in instrs], loop_carried)


class TestDataDependenceGraph:
    def test_raw_dependence(self):
        instrs = [
            Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(2)]),
            Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(1)]),
        ]
        assert (0, 1, 0) in _dependences(instrs)

    def test_no_dependence_between_independent_instructions(self):
        instrs = [
            Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(2)]),
            Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(4)]),
        ]
        assert _dependences(instrs) == []

    def test_memory_dependence_on_nearest_store(self):
        instrs = [
            Instruction.store(int_reg(1), int_reg(2), 0),
            Instruction.load(int_reg(3), int_reg(4), 0),
        ]
        assert (0, 1, 0) in _dependences(instrs)

    def test_loop_carried_edge_for_accumulator(self):
        instrs = [Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)], imm=1)]
        assert (0, 0, 1) in _dependences(instrs, loop_carried=True)

    def test_no_carried_edge_when_not_requested(self):
        instrs = [Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)], imm=1)]
        assert _dependences(instrs, loop_carried=False) == []

    def test_edge_latency_matches_producer(self):
        instrs = [
            Instruction.alu(Opcode.MUL, int_reg(1), [int_reg(2)], imm=3),
            Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(1)]),
        ]
        assert _dependences(instrs) == [(0, 1, 0)]
        assert decode(instrs[0]).latency == 3

    def test_zero_register_creates_no_dependence(self):
        instrs = [
            Instruction.alu(Opcode.ADD, int_reg(0), [int_reg(1)]),
            Instruction.alu(Opcode.ADD, int_reg(2), [int_reg(0)]),
        ]
        assert _dependences(instrs) == []

    def test_roots(self):
        instrs = [
            Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(2)]),
            Instruction.alu(Opcode.ADD, int_reg(3), [int_reg(1)]),
            Instruction.alu(Opcode.ADD, int_reg(4), [int_reg(5)]),
        ]
        consumers = {dst for _, dst, _ in _dependences(instrs)}
        assert set(range(len(instrs))) - consumers == {0, 2}
