"""Unit tests for the ISA/IR substrate (:mod:`repro.isa`)."""

from __future__ import annotations

import pytest

from repro.isa import (
    HINT_MAX_VALUE,
    Instruction,
    InstructionKind,
    Opcode,
    Program,
    decode_hint_payload,
    encode_hint_payload,
    is_branch,
    is_control,
    is_memory,
    make_hint_noop,
)
from repro.isa.encoding import HintEncodingError, tag_instruction
from repro.isa.opcodes import FuClass, default_latency, fu_class, is_int_alu
from repro.isa.program import BasicBlock, Procedure, ProgramError
from repro.isa.registers import NUM_ARCH_REGS, Reg, fp_reg, int_reg


class TestOpcodes:
    def test_every_opcode_has_latency_and_fu_class(self):
        for opcode in Opcode:
            assert default_latency(opcode) >= 1
            assert isinstance(fu_class(opcode), FuClass)

    @pytest.mark.parametrize("opcode", [Opcode.BEQZ, Opcode.BNEZ])
    def test_conditional_branches_are_branches(self, opcode):
        assert is_branch(opcode)
        assert is_control(opcode)

    @pytest.mark.parametrize(
        "opcode", [Opcode.JUMP, Opcode.CALL, Opcode.RET, Opcode.HALT]
    )
    def test_other_control_flow_is_control_but_not_branch(self, opcode):
        assert is_control(opcode)
        assert not is_branch(opcode)

    @pytest.mark.parametrize("opcode", [Opcode.LOAD, Opcode.STORE])
    def test_memory_classification(self, opcode):
        assert is_memory(opcode)
        assert fu_class(opcode) is FuClass.MEM_PORT

    def test_int_alu_latency_is_one_cycle(self):
        for opcode in Opcode:
            if is_int_alu(opcode):
                assert default_latency(opcode) == 1

    def test_table1_latencies(self):
        assert default_latency(Opcode.MUL) == 3
        assert default_latency(Opcode.FADD) == 2
        assert default_latency(Opcode.FMUL) == 4
        assert default_latency(Opcode.FDIV) == 12


class TestRegisters:
    def test_register_names(self):
        assert int_reg(5).name == "r5"
        assert fp_reg(3).name == "f3"

    def test_out_of_range_register_rejected(self):
        with pytest.raises(ValueError):
            Reg(NUM_ARCH_REGS)
        with pytest.raises(ValueError):
            Reg(-1)

    def test_registers_are_hashable_and_comparable(self):
        assert int_reg(3) == Reg(3)
        assert len({int_reg(1), Reg(1), int_reg(2)}) == 2
        assert int_reg(1) != fp_reg(1)


class TestInstruction:
    def test_alu_builder(self):
        instr = Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(2), int_reg(3)])
        assert instr.dests == (int_reg(1),)
        assert instr.srcs == (int_reg(2), int_reg(3))
        assert instr.kind is InstructionKind.INT_ALU
        assert instr.occupies_iq

    def test_load_store_builders(self):
        load = Instruction.load(int_reg(1), int_reg(2), 16)
        store = Instruction.store(int_reg(1), int_reg(2), 8)
        assert load.is_load and load.is_memory
        assert store.is_store and store.is_memory
        assert load.imm == 16 and store.imm == 8

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(opcode=Opcode.BEQZ, srcs=(int_reg(1),))

    def test_call_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(opcode=Opcode.CALL)

    def test_hint_requires_value(self):
        with pytest.raises(ValueError):
            Instruction(opcode=Opcode.HINT)

    def test_hint_does_not_occupy_issue_queue(self):
        hint = Instruction.hint(12)
        assert hint.is_hint
        assert not hint.occupies_iq

    def test_uids_are_unique(self):
        a = Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)])
        b = Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)])
        assert a.uid != b.uid

    def test_clone_copies_every_field(self):
        """A clone equals its original field for field (the dataclass
        ``__eq__`` reads every field, so a field the clone skipped
        fails here), uid included, and is a separate object."""
        original = Instruction(
            opcode=Opcode.BNEZ,
            dests=(int_reg(3),),
            srcs=(int_reg(4), fp_reg(2)),
            imm=9,
            target="loop",
            call_target="callee",
            hint_value=7,
            iq_tag=12,
            comment="every field set",
        )
        clone = original.clone()
        assert clone == original and clone.uid == original.uid
        assert clone is not original
        clone.iq_tag = 40
        assert original.iq_tag == 12

    def test_str_contains_opcode_and_operands(self):
        instr = Instruction.alu(Opcode.XOR, int_reg(4), [int_reg(5)], imm=3)
        text = str(instr)
        assert "xor" in text and "r4" in text and "r5" in text


class TestHintEncoding:
    @pytest.mark.parametrize("value", [0, 1, 8, 80, HINT_MAX_VALUE])
    def test_roundtrip(self, value):
        assert decode_hint_payload(encode_hint_payload(value)) == value

    def test_oversized_request_is_clamped(self):
        assert encode_hint_payload(HINT_MAX_VALUE + 50) == HINT_MAX_VALUE

    def test_negative_request_rejected(self):
        with pytest.raises(HintEncodingError):
            encode_hint_payload(-1)

    def test_decode_rejects_out_of_range_payload(self):
        with pytest.raises(HintEncodingError):
            decode_hint_payload(HINT_MAX_VALUE + 1)

    def test_make_hint_noop(self):
        hint = make_hint_noop(24)
        assert hint.opcode is Opcode.HINT
        assert hint.hint_value == 24

    def test_tagging_ordinary_instruction(self):
        instr = Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)])
        tag_instruction(instr, 30)
        assert instr.iq_tag == 30

    def test_tagging_hint_rejected(self):
        with pytest.raises(HintEncodingError):
            tag_instruction(make_hint_noop(5), 10)


class TestProgramContainers:
    def test_block_terminator_and_fallthrough(self):
        block = BasicBlock(label="b")
        block.append(Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)]))
        assert block.terminator is None and block.falls_through
        block.append(Instruction.jump("elsewhere"))
        assert block.terminator is not None and not block.falls_through

    def test_branch_block_falls_through(self):
        block = BasicBlock(label="b")
        block.append(Instruction.branch_nez(int_reg(1), "t"))
        assert block.falls_through

    def test_duplicate_block_label_rejected(self):
        proc = Procedure(name="p")
        proc.add_block("a")
        with pytest.raises(ProgramError):
            proc.add_block("a")

    def test_unknown_branch_target_rejected(self, counted_loop_program):
        program = counted_loop_program
        block = program.procedures["main"].find_block("loop")
        block.append(Instruction.branch_nez(int_reg(1), "nowhere"))
        with pytest.raises(ProgramError):
            program.validate()

    def test_unknown_call_target_rejected(self):
        program = Program(name="bad")
        main = program.new_procedure("main")
        block = main.add_block("entry")
        block.append(Instruction.call("missing"))
        block.append(Instruction.halt())
        with pytest.raises(ProgramError):
            program.validate()

    def test_missing_entry_rejected(self):
        program = Program(name="noentry", entry="main")
        program.new_procedure("other").add_block("b").append(Instruction.halt())
        with pytest.raises(ProgramError):
            program.validate()

    @pytest.mark.parametrize("defect", ("entry", "labels", "branch", "call"))
    def test_validate_names_the_defect(self, defect):
        """Each malformation raises its own message, naming the
        procedure (and block) where it lies, not the entry's."""
        program = Program(name="bad", entry="main")
        main = program.new_procedure("main")
        main.add_block("entry").extend([Instruction.call("helper"), Instruction.halt()])
        helper = program.new_procedure("helper")
        body = helper.add_block("body")
        body.extend([Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)]), Instruction.ret()])
        program.validate()
        if defect == "entry":
            program.entry = "start"
            message = "program bad has no entry procedure 'start'"
        elif defect == "labels":
            helper.blocks.append(BasicBlock(label="body"))
            message = "duplicate block labels in procedure helper"
        elif defect == "branch":
            bad = Instruction.branch_nez(int_reg(1), "nowhere")
            body.instructions.insert(1, bad)
            message = f"instruction {bad} in helper/body targets unknown block 'nowhere'"
        else:
            body.instructions.insert(1, Instruction.call("missing"))
            message = "call to unknown procedure 'missing' in helper"
        with pytest.raises(ProgramError) as excinfo:
            program.validate()
        assert str(excinfo.value) == message

    def test_counting_helpers(self, call_program):
        assert call_program.num_instructions > 0
        assert call_program.num_basic_blocks >= 6
        assert call_program.count_opcode(Opcode.CALL) == 2
        analysable = [p.name for p in call_program.analysable_procedures()]
        assert "libfn" not in analysable and "leaf" in analysable

    def test_non_hint_instructions(self):
        block = BasicBlock(label="b")
        block.append(make_hint_noop(9))
        block.append(Instruction.alu(Opcode.ADD, int_reg(1), [int_reg(1)]))
        assert len(block.non_hint_instructions()) == 1
