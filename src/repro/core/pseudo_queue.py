"""The compiler's pseudo issue queue (section 4.2, figure 3).

"In the compiler we maintain a structure similar to the processor's issue
queue.  We place the first few instructions in this pseudo issue queue and
then iterate over it several times, removing instructions that are able to
issue, recording their writeback times and placing new ones at the tail."

The scheduler below reproduces that procedure: instructions issue as early
as their dependences, the issue width and the functional-unit counts allow;
each simulated cycle the oldest not-yet-issued instruction and the youngest
issuing instruction are identified and the distance between them (inclusive)
is the number of issue-queue entries that cycle needs.  The block's
requirement is the maximum over all cycles.

It is event-driven rather than a rescan of the whole sequence every cycle:
an instruction is released once its last same-iteration predecessor
issues, becomes ready at the later of its entry latency and its
predecessors' writebacks, and the ready instructions are selected oldest
first; cycles in which nothing is ready are skipped, each recording a need
of zero.  ``tests/test_properties.py`` keeps the rescanning scheduler as
the oracle and checks every field of the result against it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cfg.ddg import DataDependenceGraph, build_ddg
from repro.core.config import CompilerConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FuClass
from repro.isa.registers import Reg


@dataclass
class ScheduleResult:
    """Outcome of scheduling one instruction sequence on the pseudo queue.

    Attributes:
        entries_needed: maximum issue-queue entries required on any cycle so
            that no instruction is delayed beyond its dependence/resource
            constrained issue time.
        issue_cycle: per-instruction issue cycle.
        writeback_cycle: per-instruction writeback cycle (issue + latency).
        schedule_length: first cycle at which every instruction has issued.
        per_cycle_need: entries required on each cycle (diagnostics/tests).
        exit_latency: for each register written in the sequence, how many
            cycles after the schedule finishes its value becomes available
            (0 when already written back).  Used as the path summary
            threaded to successor blocks.
    """

    entries_needed: int
    issue_cycle: list[int]
    writeback_cycle: list[int]
    schedule_length: int
    per_cycle_need: list[int] = field(default_factory=list)
    exit_latency: dict[Reg, int] = field(default_factory=dict)


class PseudoIssueQueue:
    """Dependence- and resource-constrained scheduler for compiler analysis."""

    def __init__(self, config: CompilerConfig):
        self.config = config

    # ------------------------------------------------------------------
    def schedule(
        self,
        instructions: Sequence[Instruction],
        ddg: Optional[DataDependenceGraph] = None,
        entry_latency: Optional[dict[Reg, int]] = None,
    ) -> ScheduleResult:
        """Schedule ``instructions`` and compute the IQ entries they need.

        Args:
            instructions: the sequence in program order.  Hint NOOPs are
                ignored (they never occupy an IQ entry).
            ddg: a pre-built dependence graph over exactly these
                instructions; built on demand when omitted.
            entry_latency: availability delay of registers defined before
                the sequence starts (the conservative path summary).
        """
        work = [instr for instr in instructions if instr.occupies_iq]
        if not work:
            return ScheduleResult(
                entries_needed=0,
                issue_cycle=[],
                writeback_cycle=[],
                schedule_length=0,
            )

        if ddg is None or len(ddg.instructions) != len(work):
            ddg = build_ddg(work, include_loop_carried=False)

        config = self.config
        width = config.issue_width
        fu_counts = config.fu_counts
        count = len(work)
        latency = [config.instruction_latency(instr) for instr in work]
        fus = [instr.fu_class for instr in work]
        fu_limit = [fu_counts.get(fu, width) for fu in fus]
        # Generous upper bound: every instruction serialised at max latency.
        cycle_limit = sum(latency) + count + 16

        # An instruction waits for its unissued same-iteration
        # predecessors, then for ``ready_at``: the later of its operands'
        # entry latencies and its predecessors' writebacks.
        waiting = [0] * count
        successors: list[list[int]] = [[] for _ in range(count)]
        ready_at = [0] * count
        for index, edges in ddg.preds.items():
            for edge in edges:
                if edge.distance == 0:
                    waiting[index] += 1
                    successors[edge.src].append(index)
        if entry_latency:
            for index, instr in enumerate(work):
                ready_at[index] = max([0] + [entry_latency.get(reg, 0) for reg in instr.srcs])
        # Released instructions, as (ready cycle, index), and the ready
        # ones by index: oldest first.
        released = [(ready_at[index], index) for index in range(count) if not waiting[index]]
        heapq.heapify(released)
        ready: list[int] = []

        issue_cycle = [-1] * count
        writeback_cycle = [0] * count
        per_cycle_need: list[int] = []
        entries_needed = 0
        oldest = 0
        remaining = count
        cycle = 0
        while remaining and cycle <= cycle_limit:
            while released and released[0][0] <= cycle:
                heapq.heappush(ready, heapq.heappop(released)[1])
            if not ready:
                idle_until = cycle_limit + 1
                if released:
                    idle_until = min(released[0][0], idle_until)
                per_cycle_need.extend([0] * (idle_until - cycle))
                cycle = idle_until
                continue
            selected: list[int] = []
            blocked: list[int] = []
            fu_used: dict[FuClass, int] = {}
            while ready and len(selected) < width:
                index = heapq.heappop(ready)
                fu = fus[index]
                used = fu_used.get(fu, 0)
                if used >= fu_limit[index]:
                    blocked.append(index)
                    continue
                fu_used[fu] = used + 1
                selected.append(index)
            for index in blocked:
                heapq.heappush(ready, index)
            if selected:
                need = selected[-1] - oldest + 1
                per_cycle_need.append(need)
                if need > entries_needed:
                    entries_needed = need
                for index in selected:
                    issue_cycle[index] = cycle
                    done = writeback_cycle[index] = cycle + latency[index]
                    # A successor is ready no earlier than the next cycle.
                    if done <= cycle:
                        done = cycle + 1
                    for successor in successors[index]:
                        if ready_at[successor] < done:
                            ready_at[successor] = done
                        waiting[successor] -= 1
                        if not waiting[successor]:
                            heapq.heappush(released, (ready_at[successor], successor))
                remaining -= len(selected)
                while oldest < count and issue_cycle[oldest] >= 0:
                    oldest += 1
            else:
                per_cycle_need.append(0)
            cycle += 1

        schedule_length = cycle
        exit_latency = self._exit_latency(work, writeback_cycle, schedule_length)
        return ScheduleResult(
            entries_needed=entries_needed,
            issue_cycle=issue_cycle,
            writeback_cycle=writeback_cycle,
            schedule_length=schedule_length,
            per_cycle_need=per_cycle_need,
            exit_latency=exit_latency,
        )

    def _exit_latency(
        self,
        work: list[Instruction],
        writeback_cycle: list[int],
        schedule_length: int,
    ) -> dict[Reg, int]:
        """Availability delay of each written register relative to block exit."""
        exit_latency: dict[Reg, int] = {}
        for index, instr in enumerate(work):
            for reg in instr.dests:
                exit_latency[reg] = max(0, writeback_cycle[index] - schedule_length)
        return exit_latency
