"""Loop analysis via cyclic dependence sets (section 4.3, figure 4).

Out-of-order execution overlaps loop iterations, so a loop needs enough
issue-queue entries for the instructions of several iterations to be
resident simultaneously.  The paper:

1. finds the *cyclic dependence set* (CDS) with the greatest latency -- the
   dependence recurrence that dictates how fast iterations can start;
2. writes an equation for every instruction expressing when it issues
   relative to an instruction of the CDS, eliminating constants so each
   equation reads "instruction X of iteration *i* issues together with CDS
   representative *a* of iteration *i+k*";
3. from the largest iteration offset *k* derives how many entries are needed
   for the oldest and youngest simultaneously-issuing instructions to be in
   the queue at once.

The implementation computes the recurrence's initiation interval (maximum
cycle ratio over the dependence graph with loop-carried edges), solves for
steady-state issue times by longest-path relaxation, converts them into
iteration offsets, and applies the entry-count formula of the paper's
worked example (figure 4: 15 entries for the 6-instruction loop).  All of
it runs on integers: the body is read as instruction decodes and integer
dependence edges (:mod:`repro.cfg.ddg`), the interval is an exact ratio
``p / q``, and issue times are kept scaled by ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

from repro.cfg.ddg import Decode, decode_iq, dependences
from repro.core.config import CompilerConfig
from repro.core.dag_analysis import BlockRequirement
from repro.core.pseudo_queue import PseudoIssueQueue
from repro.isa.instruction import Instruction


@dataclass
class LoopRequirement:
    """The analysis result for one natural loop.

    Attributes:
        procedure: enclosing procedure name.
        header: label of the loop header block.
        entries: issue-queue entries needed for pipelined execution of the
            loop (clamped to the physical queue size).
        raw_entries: unclamped requirement.
        initiation_interval: cycles between successive iterations of the
            critical recurrence (0 when the loop has no recurrence).
        iteration_offsets: per-instruction iteration offset *k* relative to
            the CDS representative, in body order.
        cds: indices (into the analysed body) of the critical cycle's
            instructions.
        body_size: number of IQ-occupying instructions in the analysed body.
    """

    procedure: str
    header: str
    entries: int
    raw_entries: int
    initiation_interval: float = 0.0
    iteration_offsets: list[int] = field(default_factory=list)
    cds: list[int] = field(default_factory=list)
    body_size: int = 0

    def as_block_requirement(self) -> BlockRequirement:
        """View the loop requirement as the requirement of its header block."""
        return BlockRequirement(
            procedure=self.procedure,
            label=self.header,
            entries=self.entries,
            raw_entries=self.raw_entries,
            schedule=None,
            source="loop",
        )


#: One dependence edge as plain integers: ``(src, dst, latency, distance)``,
#: with the producer's latency as the compiler assumes it.
Edge = tuple[int, int, int, int]


def _recurrence_nodes(count: int, edges: list[Edge]) -> list[int]:
    """Nodes that participate in some dependence recurrence (the CDS candidates).

    Same-iteration edges all point forward in the body, so every cycle
    runs through a loop-carried edge, and a node is on a recurrence
    exactly when it reaches itself.  Reachability is a transitive closure
    over one bitmask of successors per node (Warshall).
    """
    reach = [0] * count
    for src, dst, _, _ in edges:
        reach[src] |= 1 << dst
    for via in range(count):
        bit, through = 1 << via, reach[via]
        for node in range(count):
            if reach[node] & bit:
                reach[node] |= through
    return [node for node in range(count) if reach[node] >> node & 1]


def _predecessor_cycle(pred: list[Optional[Edge]]) -> Optional[list[Edge]]:
    """A cycle of the predecessor graph (one edge per node at most), if any."""
    walk = [-1] * len(pred)
    for start in range(len(pred)):
        node: Optional[int] = start
        while node is not None and walk[node] < 0:
            walk[node] = start
            edge = pred[node]
            node = edge[0] if edge is not None else None
        if node is not None and walk[node] == start:
            cycle = [pred[node]]
            while cycle[-1][0] != node:
                cycle.append(pred[cycle[-1][0]])
            return cycle
    return None


def _longest_paths(
    count: int, edges: list[Edge], p: int, q: int
) -> tuple[list[int], Optional[list[Edge]]]:
    """Longest-path relaxation under the weights ``q * latency - p * distance``.

    Every node starts at 0, as if a virtual source reached each at no
    cost.  Returns ``(labels, None)`` once no edge relaxes.  Returns
    ``(labels, cycle)`` as soon as the predecessor graph closes a cycle:
    relaxations are strict, so such a cycle has positive weight, that is
    a latency-per-distance ratio above ``p / q``.  One of the two always
    happens: while the predecessor graph is a forest every label is
    bounded by a simple path's weight, and the labels are integers.
    """
    labels = [0] * count
    pred: list[Optional[Edge]] = [None] * count
    while True:
        changed = False
        for edge in edges:
            src, dst, latency, distance = edge
            candidate = labels[src] + q * latency - p * distance
            if candidate > labels[dst]:
                labels[dst] = candidate
                pred[dst] = edge
                changed = True
        if not changed:
            return labels, None
        cycle = _predecessor_cycle(pred)
        if cycle is not None:
            return labels, cycle


def _recurrence_initiation_interval(count: int, edges: list[Edge]) -> tuple[int, int]:
    """Maximum cycle ratio (latency per iteration distance), exactly.

    Returned as a reduced ``(p, q)`` pair meaning ``p / q``; ``(0, 1)``
    when no recurrence exists.  Newton (Dinkelbach) iteration: at the
    current ratio, one relaxation either proves no cycle exceeds it,
    which makes it the maximum, or yields a cycle that does, whose ratio
    is the next candidate.  The ratio rises strictly, so the search ends.
    """
    p, q = 0, 1
    while True:
        _, cycle = _longest_paths(count, edges, p, q)
        if cycle is None:
            return p, q
        latency = sum(edge[2] for edge in cycle)
        distance = sum(edge[3] for edge in cycle)
        divisor = gcd(latency, distance)
        p, q = latency // divisor, distance // divisor


def _resource_initiation_interval(
    work: Sequence[Decode], config: CompilerConfig
) -> tuple[int, int]:
    """Resource-constrained lower bound on the initiation interval.

    The issue width and the functional-unit counts bound how fast iterations
    can be started regardless of dependences (the paper's analysis considers
    resources as well as data dependences, section 4).  Returned as a
    ``(p, q)`` pair meaning ``p / q``.
    """
    bound = (len(work), max(1, config.issue_width))
    limits = config.fu_limits()
    usage: dict[int, int] = {}
    for decoded in work:
        usage[decoded.fu] = usage.get(decoded.fu, 0) + 1
    for fu, count in usage.items():
        units = limits[fu]
        if units > 0 and count * bound[1] > bound[0] * units:
            bound = (count, units)
    return bound


def analyse_loop_body(
    body_instructions: Sequence[Instruction],
    config: CompilerConfig,
    procedure_name: str = "",
    header_label: str = "",
) -> LoopRequirement:
    """Analyse a loop whose body is the given instruction sequence."""
    work = decode_iq(body_instructions, config.assumed_l1_hit_latency)
    body_size = len(work)
    if body_size == 0:
        return LoopRequirement(
            procedure=procedure_name,
            header=header_label,
            entries=config.min_hint_value,
            raw_entries=0,
            body_size=0,
        )

    edges = [
        (src, dst, work[src].latency, distance)
        for src, dst, distance in dependences(work, loop_carried=True)
    ]
    cds_nodes = _recurrence_nodes(body_size, edges)
    recurrence = (
        _recurrence_initiation_interval(body_size, edges) if cds_nodes else (0, 1)
    )

    if recurrence[0] == 0:
        # No recurrence: iterations are independent, so the more entries the
        # better; request the full queue (the paper's library-call treatment
        # applies the same "maximum size" escape hatch).
        raw = config.max_iq_entries
        return LoopRequirement(
            procedure=procedure_name,
            header=header_label,
            entries=config.clamp_requirement(raw),
            raw_entries=raw,
            initiation_interval=0.0,
            iteration_offsets=[],
            cds=[],
            body_size=body_size,
        )

    # The achievable initiation interval is bounded below by both the
    # critical recurrence and the machine's issue resources.
    p, q = recurrence
    resource = _resource_initiation_interval(work, config)
    if resource[0] * q > p * resource[1]:
        p, q = resource
    times, _ = _longest_paths(body_size, edges, p, q)
    # The labels are issue times scaled by q, so floor(time / II) is
    # label // p.
    offsets = [label // p for label in times]
    representative = min(cds_nodes)
    single_iteration = PseudoIssueQueue(config).schedule_decoded(work)[0].entries_needed

    max_offset = max(offsets)
    if max_offset <= 0:
        raw = max(single_iteration, config.min_hint_value)
    else:
        latest_positions = [i for i, k in enumerate(offsets) if k == max_offset]
        earliest_latest = min(latest_positions)
        rep_position = representative
        raw = (
            (body_size - earliest_latest)
            + body_size * (max_offset - 1)
            + (rep_position + 1)
        )
        raw = max(raw, single_iteration)

    return LoopRequirement(
        procedure=procedure_name,
        header=header_label,
        entries=config.clamp_requirement(raw),
        raw_entries=raw,
        initiation_interval=p / q,
        iteration_offsets=offsets,
        cds=cds_nodes,
        body_size=body_size,
    )


def analyse_loop(
    blocks: Sequence,
    config: CompilerConfig,
    procedure_name: str = "",
    header_label: Optional[str] = None,
) -> LoopRequirement:
    """Analyse a natural loop given its basic blocks in layout order.

    The bodies of the supplied blocks (typically the loop's *exclusive*
    blocks so inner loops are not analysed twice) are concatenated in layout
    order to form the iteration body.
    """
    instructions: list[Instruction] = []
    for block in blocks:
        instructions.extend(block.instructions)
    header = header_label or (blocks[0].label if blocks else "")
    return analyse_loop_body(
        instructions, config, procedure_name=procedure_name, header_label=header
    )
