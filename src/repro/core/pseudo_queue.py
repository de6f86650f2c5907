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
of zero.  It works on the instructions' decodes
(:func:`~repro.cfg.ddg.decode`): predecessor counts and successor lists
come from :func:`~repro.cfg.ddg.dependences`, which tracks the last
writer of each register slot in a flat array, and issue limits from a
list indexed by functional-unit ordinal.  ``tests/test_properties.py``
keeps the rescanning scheduler, over the ``Reg``-keyed dependence builder
the compiler used before, as the oracle and checks every field of the
result against it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cfg.ddg import SLOT_REGS, Decode, decode_iq, dependences, slot
from repro.core.config import CompilerConfig
from repro.isa.instruction import Instruction
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
        entry_latency: Optional[dict[Reg, int]] = None,
    ) -> ScheduleResult:
        """Schedule ``instructions`` and compute the IQ entries they need.

        Args:
            instructions: the sequence in program order.  Hint NOOPs are
                ignored (they never occupy an IQ entry).
            entry_latency: availability delay of registers defined before
                the sequence starts (the conservative path summary).
        """
        entry = None
        if entry_latency:
            entry = {slot(reg): cycles for reg, cycles in entry_latency.items()}
        work = decode_iq(instructions, self.config.assumed_l1_hit_latency)
        return self.schedule_decoded(work, entry)[0]

    def schedule_decoded(
        self, work: Sequence[Decode], entry: Optional[dict[int, int]] = None
    ) -> tuple[ScheduleResult, dict[int, int]]:
        """:meth:`schedule` on decodes: the result, and its exit latency
        keyed by register slot.

        Args:
            work: the decodes of the IQ-occupying instructions, in
                program order, with the configured load latency.
            entry: availability delay of registers defined before the
                sequence starts, keyed by slot.
        """
        if not work:
            return (
                ScheduleResult(
                    entries_needed=0,
                    issue_cycle=[],
                    writeback_cycle=[],
                    schedule_length=0,
                ),
                {},
            )

        config = self.config
        width = config.issue_width
        limits = config.fu_limits()
        count = len(work)
        latency = [decoded.latency for decoded in work]
        fus = [decoded.fu for decoded in work]
        # Generous upper bound: every instruction serialised at max latency.
        cycle_limit = sum(latency) + count + 16

        # An instruction waits for its unissued same-iteration
        # predecessors, then for ``ready_at``: the later of its operands'
        # entry latencies and its predecessors' writebacks.
        waiting = [0] * count
        successors: list[list[int]] = [[] for _ in range(count)]
        ready_at = [0] * count
        for src, dst, _ in dependences(work):
            waiting[dst] += 1
            successors[src].append(dst)
        if entry:
            for index, decoded in enumerate(work):
                for src in decoded.srcs:
                    cycles = entry.get(src, 0)
                    if cycles > ready_at[index]:
                        ready_at[index] = cycles
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
            fu_used = [0] * len(limits)
            while ready and len(selected) < width:
                index = heapq.heappop(ready)
                fu = fus[index]
                if fu_used[fu] >= limits[fu]:
                    blocked.append(index)
                    continue
                fu_used[fu] += 1
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

        # Each written register's availability relative to block exit,
        # from its last writer; r0 included, as reads of it are.
        exit_slots: dict[int, int] = {}
        for index, decoded in enumerate(work):
            for dest in decoded.dests:
                exit_slots[dest] = max(0, writeback_cycle[index] - cycle)
        result = ScheduleResult(
            entries_needed=entries_needed,
            issue_cycle=issue_cycle,
            writeback_cycle=writeback_cycle,
            schedule_length=cycle,
            per_cycle_need=per_cycle_need,
            exit_latency={SLOT_REGS[dest]: cycles for dest, cycles in exit_slots.items()},
        )
        return result, exit_slots
