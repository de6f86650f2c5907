"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from repro.cfg import build_ddg
from repro.core import CompilerConfig, analyse_program, compile_program
from repro.core.instrument import ALL_MODES
from repro.core.loop_analysis import (
    _recurrence_initiation_interval,
    _recurrence_nodes,
    analyse_loop_body,
)
from repro.core.pseudo_queue import PseudoIssueQueue, ScheduleResult
from repro.isa import Instruction, Opcode
from repro.isa.encoding import HINT_MAX_VALUE, decode_hint_payload, encode_hint_payload
from repro.isa.opcodes import FuClass
from repro.isa.registers import fp_reg, int_reg
from repro.uarch.issue_queue import BankedIssueQueue
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.trace import program_digest
from repro.workloads.generator import SyntheticProgramGenerator
from repro.workloads.traits import BenchmarkTraits
from tests.conftest import synthetic_traits


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_alu_opcodes = st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MUL])


@st.composite
def instruction_sequences(draw, max_length: int = 20):
    """Random straight-line sequences of ALU/memory instructions."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    instructions = []
    for _ in range(length):
        choice = draw(st.integers(min_value=0, max_value=3))
        dest = int_reg(draw(st.integers(min_value=1, max_value=12)))
        src = int_reg(draw(st.integers(min_value=1, max_value=12)))
        if choice == 0:
            instructions.append(Instruction.load(dest, src, draw(st.integers(0, 64)) * 8))
        elif choice == 1:
            instructions.append(Instruction.store(dest, src, draw(st.integers(0, 64)) * 8))
        else:
            opcode = draw(_alu_opcodes)
            instructions.append(
                Instruction.alu(opcode, dest, [src], imm=draw(st.integers(1, 7)))
            )
    return instructions


# ---------------------------------------------------------------------------
# Hint encoding
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=HINT_MAX_VALUE))
def test_hint_encoding_roundtrip(value):
    assert decode_hint_payload(encode_hint_payload(value)) == value


@given(st.integers(min_value=0, max_value=10_000))
def test_hint_encoding_never_exceeds_payload(value):
    assert 0 <= encode_hint_payload(value) <= HINT_MAX_VALUE


# ---------------------------------------------------------------------------
# Dependence graphs
# ---------------------------------------------------------------------------
@given(instruction_sequences())
@settings(max_examples=40, deadline=None)
def test_ddg_edges_point_forward_within_iteration(instructions):
    ddg = build_ddg(instructions, include_loop_carried=True)
    for edge in ddg.edges:
        assert 0 <= edge.src < len(instructions)
        assert 0 <= edge.dst < len(instructions)
        if edge.distance == 0:
            assert edge.src < edge.dst or edge.src == edge.dst is None
        assert edge.latency >= 1


@given(instruction_sequences())
@settings(max_examples=40, deadline=None)
def test_ddg_carried_edges_only_when_requested(instructions):
    plain = build_ddg(instructions, include_loop_carried=False)
    assert all(edge.distance == 0 for edge in plain.edges)


# ---------------------------------------------------------------------------
# Pseudo issue queue / analysis invariants
# ---------------------------------------------------------------------------
@given(instruction_sequences())
@settings(max_examples=30, deadline=None)
def test_pseudo_queue_requirement_bounds(instructions):
    config = CompilerConfig()
    schedule = PseudoIssueQueue(config).schedule(instructions)
    occupying = [i for i in instructions if i.occupies_iq]
    assert 0 <= schedule.entries_needed <= len(occupying)
    assert all(cycle >= 0 for cycle in schedule.issue_cycle)
    # Dependences are respected: every consumer issues after its producer.
    ddg = build_ddg(occupying)
    for edge in ddg.intra_edges():
        assert schedule.issue_cycle[edge.dst] > schedule.issue_cycle[edge.src] - 1


def _reference_schedule(config, instructions, entry_latency=None) -> ScheduleResult:
    """The rescanning pseudo-queue scheduler, kept as the oracle for the
    event-driven one: every cycle it scans for the oldest unissued
    instruction, rechecks every unissued instruction's operands
    (:func:`_reference_ready`) and selects oldest first
    (:func:`_reference_select`)."""
    work = [instr for instr in instructions if instr.occupies_iq]
    if not work:
        return ScheduleResult(
            entries_needed=0, issue_cycle=[], writeback_cycle=[], schedule_length=0
        )
    ddg = build_ddg(work, include_loop_carried=False)
    entry_latency = dict(entry_latency or {})
    count = len(work)
    issue_cycle = [-1] * count
    writeback_cycle = [0] * count
    issued = [False] * count
    remaining = count
    per_cycle_need: list[int] = []
    entries_needed = 0
    cycle = 0
    cycle_limit = sum(config.instruction_latency(instr) for instr in work) + count + 16
    while remaining and cycle <= cycle_limit:
        oldest_remaining = next(i for i in range(count) if not issued[i])
        ready = _reference_ready(work, ddg, entry_latency, issued, writeback_cycle, cycle)
        selected = _reference_select(config, work, ready)
        if selected:
            need = max(selected) - oldest_remaining + 1
            per_cycle_need.append(need)
            entries_needed = max(entries_needed, need)
            for index in selected:
                issued[index] = True
                issue_cycle[index] = cycle
                writeback_cycle[index] = cycle + config.instruction_latency(work[index])
                remaining -= 1
        else:
            per_cycle_need.append(0)
        cycle += 1
    exit_latency = {}
    for index, instr in enumerate(work):
        for reg in instr.dests:
            exit_latency[reg] = max(0, writeback_cycle[index] - cycle)
    return ScheduleResult(
        entries_needed=entries_needed,
        issue_cycle=issue_cycle,
        writeback_cycle=writeback_cycle,
        schedule_length=cycle,
        per_cycle_need=per_cycle_need,
        exit_latency=exit_latency,
    )


def _reference_ready(work, ddg, entry_latency, issued, writeback_cycle, cycle):
    """Indices of unissued instructions whose dependences are satisfied."""
    ready = []
    for index, instr in enumerate(work):
        if issued[index]:
            continue
        if any(entry_latency.get(reg, 0) > cycle for reg in instr.srcs):
            continue
        ok = True
        for edge in ddg.preds[index]:
            if edge.distance != 0:
                continue
            if not issued[edge.src] or writeback_cycle[edge.src] > cycle:
                ok = False
                break
        if ok:
            ready.append(index)
    return ready


def _reference_select(config, work, ready):
    """Apply issue-width and functional-unit constraints, oldest first."""
    selected = []
    fu_used = {}
    for index in ready:
        if len(selected) >= config.issue_width:
            break
        fu = work[index].fu_class
        limit = config.fu_counts.get(fu, config.issue_width)
        if fu_used.get(fu, 0) >= limit:
            continue
        fu_used[fu] = fu_used.get(fu, 0) + 1
        selected.append(index)
    return selected


@st.composite
def scheduler_blocks(draw):
    """A random block for the pseudo queue: integer ALU, multiply and
    divide, FP, loads and stores over small register pools (so registers
    are reused), with HINT and NOP filler."""
    length = draw(st.integers(min_value=0, max_value=24))
    int_regs = st.integers(min_value=0, max_value=6).map(int_reg)
    fp_regs = st.integers(min_value=0, max_value=4).map(fp_reg)
    block = []
    for _ in range(length):
        kind = draw(st.sampled_from(("alu", "mul", "fp", "load", "store", "hint", "nop")))
        if kind == "alu":
            opcode = draw(st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.SHL]))
            srcs = draw(st.lists(int_regs, min_size=1, max_size=2))
            block.append(Instruction.alu(opcode, draw(int_regs), srcs))
        elif kind == "mul":
            opcode = draw(st.sampled_from([Opcode.MUL, Opcode.DIV]))
            block.append(Instruction.alu(opcode, draw(int_regs), [draw(int_regs)]))
        elif kind == "fp":
            opcode = draw(st.sampled_from([Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV]))
            srcs = draw(st.lists(fp_regs, min_size=1, max_size=2))
            block.append(Instruction.alu(opcode, draw(fp_regs), srcs))
        elif kind == "load":
            block.append(Instruction.load(draw(int_regs), draw(int_regs), 8))
        elif kind == "store":
            block.append(Instruction.store(draw(int_regs), draw(int_regs), 8))
        elif kind == "hint":
            block.append(Instruction.hint(draw(st.integers(1, 64))))
        else:
            block.append(Instruction(Opcode.NOP))
    return block


@given(
    block=scheduler_blocks(),
    entry_latency=st.dictionaries(
        st.one_of(
            st.integers(min_value=0, max_value=6).map(int_reg),
            st.integers(min_value=0, max_value=4).map(fp_reg),
        ),
        st.one_of(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=400)),
        max_size=4,
    ),
    issue_width=st.integers(min_value=1, max_value=8),
    fu_counts=st.dictionaries(
        st.sampled_from(list(FuClass)), st.integers(min_value=0, max_value=4)
    ),
)
@settings(max_examples=300, deadline=None)
def test_event_driven_schedule_equals_the_rescanning_reference(
    block, entry_latency, issue_width, fu_counts
):
    """Every field of the event-driven pseudo queue's result equals the
    rescanning scheduler's, for any block, entry latencies (some past the
    cycle limit), issue width and FU counts (some zero, some classes
    absent and so bounded by the width)."""
    config = CompilerConfig(issue_width=issue_width, fu_counts=fu_counts)
    result = PseudoIssueQueue(config).schedule(block, entry_latency=entry_latency)
    reference = _reference_schedule(config, block, entry_latency)
    for name in (
        "entries_needed",
        "issue_cycle",
        "writeback_cycle",
        "schedule_length",
        "per_cycle_need",
        "exit_latency",
    ):
        assert getattr(result, name) == getattr(reference, name), name


@given(instruction_sequences(max_length=14))
@settings(max_examples=25, deadline=None)
def test_loop_requirement_is_clamped_and_monotone_in_margin(instructions):
    tight = CompilerConfig(sizing_margin=1.0, sizing_slack=0)
    loose = CompilerConfig(sizing_margin=2.0, sizing_slack=4)
    tight_req = analyse_loop_body(instructions, tight)
    loose_req = analyse_loop_body(instructions, loose)
    assert tight.min_hint_value <= tight_req.entries <= tight.max_iq_entries
    assert loose_req.entries >= tight_req.entries


def _simple_cycles(count, edges):
    """Every simple cycle as its edge list, each found once from its lowest node."""
    out_edges = {node: [] for node in range(count)}
    for edge in edges:
        out_edges[edge[0]].append(edge)
    cycles = []

    def extend(start, node, path, seen):
        for edge in out_edges[node]:
            dst = edge[1]
            if dst == start:
                cycles.append(path + [edge])
            elif dst > start and dst not in seen:
                extend(start, dst, path + [edge], seen | {dst})

    for start in range(count):
        extend(start, start, [], {start})
    return cycles


def _reaches_itself(successors, node):
    """Breadth-first search from ``node``'s successors back to ``node``."""
    frontier = deque(successors[node])
    seen = set(frontier)
    while frontier:
        current = frontier.popleft()
        if current == node:
            return True
        for nxt in successors[current] - seen:
            seen.add(nxt)
            frontier.append(nxt)
    return False


@given(instruction_sequences(max_length=10))
@settings(max_examples=80, deadline=None)
def test_recurrence_analysis_matches_brute_force(instructions):
    config = CompilerConfig()
    ddg = build_ddg(instructions, include_loop_carried=True)
    count = len(instructions)
    latency = [config.instruction_latency(instr) for instr in instructions]
    edges = [(edge.src, edge.dst, latency[edge.src], edge.distance) for edge in ddg.edges]
    ratios = [
        Fraction(sum(edge[2] for edge in cycle), sum(edge[3] for edge in cycle))
        for cycle in _simple_cycles(count, edges)
    ]
    expected = max(ratios, default=Fraction(0))
    p, q = _recurrence_initiation_interval(count, edges)
    assert Fraction(p, q) == expected
    assert gcd(p, q) == 1

    successors = {node: set() for node in range(count)}
    for edge in ddg.edges:
        successors[edge.src].add(edge.dst)
    assert _recurrence_nodes(ddg) == [
        node for node in range(count) if _reaches_itself(successors, node)
    ]

    # The loop's interval is the recurrence's, or the resource bound above
    # it, rounded to the nearest float.
    requirement = analyse_loop_body(instructions, config)
    if expected:
        assert requirement.initiation_interval >= float(expected)
    else:
        assert requirement.initiation_interval == 0.0


# ---------------------------------------------------------------------------
# Issue queue invariants under random operation sequences
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_issue_queue_invariants(operations):
    """Random allocate/remove/broadcast sequences keep the queue consistent."""
    iq = BankedIssueQueue(capacity=16, bank_size=4)
    live = []
    next_tag = 1000
    for op in operations:
        if op == 0:  # allocate if possible
            ok, _ = iq.can_dispatch()
            if ok:
                entry = iq.allocate(len(live), {next_tag}, 1, FuClass.INT_ALU, 0)
                live.append((entry, next_tag))
                next_tag += 1
        elif op == 1 and live:  # wake then remove the oldest live entry
            entry, tag = live.pop(0)
            iq.broadcast(tag)
            iq.remove(entry)
        elif op == 2 and live:  # broadcast a random live tag (wake only)
            iq.broadcast(live[-1][1])

        # Invariants.
        assert iq.occupancy == len(live)
        assert 0 <= iq.occupancy <= iq.span <= iq.capacity
        assert sum(iq.bank_counts) == iq.occupancy
        assert iq.waiting_operand_count >= 0
        assert iq.enabled_banks(True) <= iq.num_banks
        assert iq.region_occupancy <= iq.span


# ---------------------------------------------------------------------------
# Register file invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=70))
@settings(max_examples=50, deadline=None)
def test_register_file_allocation_invariants(arch_regs):
    rf = PhysicalRegisterFile(112, 32, 8)
    released = []
    for arch in arch_regs:
        if rf.free_count == 0:
            break
        _, old = rf.allocate(arch)
        released.append(old)
        assert rf.allocated + rf.free_count == 112
        assert sum(rf.bank_counts) == rf.allocated
    for phys in released:
        rf.release(phys)
    assert rf.allocated + rf.free_count == 112
    assert rf.allocated == 32 - len([r for r in []])  # all transients released
    assert sum(rf.bank_counts) == rf.allocated


# ---------------------------------------------------------------------------
# Workload generator: any sane trait combination yields a valid program
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loops=st.integers(min_value=0, max_value=3),
    dags=st.integers(min_value=0, max_value=2),
    calls=st.integers(min_value=0, max_value=2),
    ilp=st.integers(min_value=1, max_value=5),
    mem=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=25, deadline=None)
def test_generator_always_produces_valid_programs(seed, loops, dags, calls, ilp, mem):
    traits = BenchmarkTraits(
        name="prop",
        seed=seed,
        num_loop_kernels=loops,
        num_dag_kernels=dags,
        num_call_kernels=calls,
        ilp_width=ilp,
        mem_fraction=mem,
        outer_trips=2,
        loop_trip_count=(2, 5),
    )
    program = SyntheticProgramGenerator(traits).build()
    program.validate()
    assert "main" in program.procedures


# ---------------------------------------------------------------------------
# Compiler: a compile on a shared analysis equals a fresh compile
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shape=st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
    modes=st.lists(st.sampled_from(ALL_MODES), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_compiles_sharing_an_analysis_equal_fresh_compiles(seed, shape, modes):
    """Whatever modes compiled on one analysis before, in whatever order,
    the next compile on it emits what a fresh compile emits."""
    program = SyntheticProgramGenerator(synthetic_traits(seed, *shape)).build()
    config = CompilerConfig()
    analysis = analyse_program(program, config)
    for mode in modes:
        shared = compile_program(program, config, mode=mode, analysis=analysis)
        fresh = compile_program(program, config, mode=mode)
        assert program_digest(shared.instrumented_program) == program_digest(
            fresh.instrumented_program
        ), mode
        assert shared.block_requirements == fresh.block_requirements, mode
        assert shared.preheader_hints == fresh.preheader_hints, mode
