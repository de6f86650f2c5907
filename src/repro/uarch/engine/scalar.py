"""The scalar replay kernel: the out-of-order pipeline driver.

A trace-driven, cycle-level model of the processor in table 1: the
functional emulator supplies the committed dynamic instruction stream and
this core times it through fetch, decode, rename/dispatch, issue, execute,
writeback and commit, modelling the issue queue, reorder buffer, physical
register files, functional units, caches and branch prediction.

:class:`OutOfOrderCore` is the reference implementation of the
:class:`~repro.uarch.engine.base.ReplayEngine` contract — the pure-Python
per-cycle loop, moved here verbatim from ``repro.uarch.core`` (which
remains the import-compatible front door).  It is the model the
compiled native kernel (:mod:`repro.uarch.engine.native`) is held to,
bit for bit, and the kernel hosts without a C toolchain run.

The core is a **replay engine**: it walks the committed stream's compact
columns by index.  Functional emulation happens exactly once per
(program, budget) in :mod:`repro.uarch.trace` (memoised in-process and
optionally cached on disk), so the per-cycle hot path performs no
interpreter dispatch, no ``DynamicInstruction`` attribute chains and no
per-instruction object allocation.  The feed is a
:class:`~repro.uarch.trace.TraceWindowStream`: the program's
:class:`~repro.uarch.trace.StaticTable` plus the trace's one
:class:`~repro.uarch.trace.TraceWindow` of columns, indexed by trace
position.  Fetch resolves each entry's static row from its pc, with a
bounds check, and carries the row through the fetch queue; dispatch
reads the row's attributes (issue and later stages read timing
attributes copied onto the ROB entry at dispatch).  A stream with a
:class:`~repro.uarch.trace.HintMap` (a program with hint NOOPs
replaying its stripped program's trace) is fetched by
:meth:`OutOfOrderCore._fetch_expanding`, which fetches each entry's hint
run before it, the tail run after the last entry, and nothing past the
budget.

Deviation from an execute-driven simulator: the wrong path after a branch
misprediction is not fetched; instead the front end stalls until the
mispredicted branch resolves and then pays a redirect penalty.  All
quantities the paper reports (IPC deltas, queue occupancy, wakeup
activity, bank usage, register lifetime) are preserved by this
simplification because wrong-path instructions never commit and the stall
time equals the resolution delay either way.

Statistics whose per-cycle sums feed time averages (queue occupancy,
waiting operands, enabled banks, live registers, in-flight count) are
accumulated **event-driven**: the six sampled quantities only change when
a pipeline stage dispatches, issues, writes back or commits, so the core
folds ``value × elapsed_cycles`` into the sums at those boundaries (and
once at the end of the run) instead of re-reading every structure every
cycle.  End-of-run statistics are identical to per-cycle sampling.

The stage methods (:meth:`OutOfOrderCore._commit`, ``_writeback``,
``_issue``, ``_dispatch`` and the two fetch stages) are the one Python
definition of the machine: they update the state of the
:mod:`~repro.uarch.issue_queue`, :mod:`~repro.uarch.rob` and
:mod:`~repro.uarch.regfile` structures in place, and ``_native.c``
mirrors them stage for stage.  ``tests/test_engines.py`` steps them
through figure 2's transitions, the queue and ROB limits, wakeup,
ordering and the register and unit rules, holds the two kernels to
each other on those streams and on random machines, and
``tests/test_properties.py`` checks the structures' invariants after
every cycle.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import Optional

from repro.isa.opcodes import FU_ORDER
from repro.uarch.engine.base import ReplayEngine, register_engine
from repro.uarch.branch import HybridBranchPredictor
from repro.uarch.cache import MemoryHierarchy
from repro.uarch.config import ProcessorConfig
from repro.uarch.issue_queue import BankedIssueQueue, IssueQueueEntry
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rob import COMPLETED, DISPATCHED, ISSUED, ReorderBuffer, RobEntry
from repro.uarch.stats import SimulationStats
from repro.uarch.trace import (
    F_BRANCH,
    F_CALL,
    F_CONTROL,
    F_HINT,
    F_LOAD,
    F_NOP,
    F_RET,
    F_STORE,
    HintMap,
    TraceWindowStream,
    empty_columns,
)

#: 1 for a flags byte with ``F_HINT`` set, else 0 (``bytes.translate``).
_HINT_ROWS = bytes(1 if value & F_HINT else 0 for value in range(256))


def check_hint_map(hints: HintMap, flags: bytes) -> None:
    """Raise ``ValueError`` unless every row ``hints`` names lies in the
    table whose flags column is ``flags``, and every run it names holds
    only ``F_HINT`` rows, as the native kernel checks when it builds its
    machine."""
    runs = hints.runs
    n_rows = len(flags)
    # hint_rows[i]: the F_HINT rows below row i.
    hint_rows = [0, *accumulate(flags.translate(_HINT_ROWS))]

    def is_run(first: int, count: int) -> bool:
        return (
            0 <= first
            and 0 <= count
            and first + count <= n_rows
            and hint_rows[first + count] - hint_rows[first] == count
        )

    if not len(runs.rows) == len(runs.sequential) == len(runs.taken):
        raise ValueError("hint map columns differ in length")
    for entry, (row, sequential, taken) in enumerate(
        zip(runs.rows, runs.sequential, runs.taken)
    ):
        if not (
            0 <= row < n_rows
            and is_run(row - sequential, sequential)
            and is_run(row - taken, taken)
        ):
            raise ValueError(f"hint map entry {entry} is out of range for its table")
    if not is_run(hints.tail_row, hints.tail_count) or hints.budget < 0:
        raise ValueError("hint map tail or budget is out of range for its table")


class OutOfOrderCore:
    """Cycle-level timing model replaying a trace stream."""

    def __init__(
        self,
        trace: TraceWindowStream,
        config: Optional[ProcessorConfig] = None,
        policy=None,
        warmup_instructions: int = 0,
        max_cycles: Optional[int] = None,
    ):
        self.config = config or ProcessorConfig.hpca2005()
        self.config.validate()
        if policy is None:
            from repro.techniques.fixed import BaselinePolicy

            policy = BaselinePolicy()
        self.policy = policy
        self.warmup_instructions = warmup_instructions
        self.max_cycles = max_cycles

        self._table = trace.table
        window = trace.next_window()
        if window is None:
            window = empty_columns()
        self._trace = window
        self._trace_length = window.length
        self._trace_pos = 0
        self._trace_exhausted = False
        # Hint expansion (streams with a map): hints left to fetch before
        # the entry at ``_trace_pos`` or in the tail (-1: its run is not
        # known yet), the own row of the next one and of that entry,
        # whether the entry before it was a taken transfer other than a
        # return, whether the tail has started, and entries fetched.
        self._hints = trace.hints
        self._fetch_stage = self._fetch
        if self._hints is not None:
            check_hint_map(self._hints, self._table.flags)
            self._fetch_stage = self._fetch_expanding
        self._pending = -1
        self._hint_row = 0
        self._entry_row = 0
        self._after_taken = False
        self._in_tail = False
        self._fetched_total = 0

        cfg = self.config
        self.stats = SimulationStats(
            iq_banks_total=cfg.iq_banks, rf_banks_total=cfg.int_regfile_banks
        )
        self.iq = BankedIssueQueue(cfg.iq_entries, cfg.iq_bank_size)
        self.rob = ReorderBuffer(cfg.rob_entries)
        # Rename: 32 integer and 16 FP architectural registers.
        self.int_file = PhysicalRegisterFile(cfg.int_phys_regs, 32, cfg.regfile_bank_size)
        self.fp_file = PhysicalRegisterFile(cfg.fp_phys_regs, 16, cfg.regfile_bank_size)
        # Functional units, per FU_ORDER ordinal: how many instructions
        # each class may begin per cycle, and how many began this cycle.
        self._fu_limits = [cfg.fu_counts.get(fu, 0) for fu in FU_ORDER]
        self._fu_used = [0] * len(FU_ORDER)
        self._fu_zeros = [0] * len(FU_ORDER)
        self.memory = MemoryHierarchy(cfg)
        self.predictor = HybridBranchPredictor(cfg.branch)

        total_tags = cfg.int_phys_regs + cfg.fp_phys_regs
        self._tag_ready = bytearray([1] * total_tags)

        self.cycle = 0
        # Fetch/decode queue of (trace index, decode-ready cycle, static
        # table row) triples.
        self._fetch_queue: deque[tuple[int, int, int]] = deque()
        self._completion_events: dict[int, list] = {}
        self._iq_entry_by_rob: dict[int, IssueQueueEntry] = {}

        # Front-end stall state.
        self._fetch_blocked_on_seq: Optional[int] = None
        self._fetch_resume_cycle = 0
        self._last_fetch_line: Optional[int] = None

        self._warmup_done = warmup_instructions == 0
        self._committed_total = 0

        # Event-driven sampling state: the snapshot of the six sampled
        # quantities, the cycle it was taken at, and whether any stage
        # has invalidated it this cycle.
        self._sample_snapshot = (0, 0, 0, 0, 0, 0)
        self._sample_anchor = 0
        self._sample_dirty = True

        self.policy.on_simulation_start(self)
        # ``on_cycle_end`` runs only once the clock reaches the cycle the
        # policy asks to be woken at (None: never).
        self._wake = self.policy.next_wake_cycle()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Simulate until the trace drains (or ``max_cycles`` is hit)."""
        safety_limit = self.max_cycles
        step = self.step
        while not self._finished():
            step()
            if safety_limit is not None and self.cycle >= safety_limit:
                break
        self._finalize_sample()
        return self.stats

    def step(self) -> None:
        """Advance the machine by one cycle (back-to-front stage order)."""
        self._fu_used[:] = self._fu_zeros  # every unit is free again
        self._commit()
        self._writeback()
        self._issue()
        self._dispatch()
        self._fetch_stage()
        if self._warmup_done and self._sample_dirty:
            self._flush_sample()
        wake = self._wake
        if wake is not None and self.cycle >= wake:
            policy = self.policy
            policy.on_cycle_end(self)
            self._wake = policy.next_wake_cycle()
        self.cycle += 1
        self.stats.cycles = self.cycle if self._warmup_done else 0

    # ------------------------------------------------------------------
    def _finished(self) -> bool:
        return (
            self._trace_exhausted
            and not self._fetch_queue
            and self.rob.count == 0
        )

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        # Retire up to commit_width completed entries, in order, from
        # the ROB head.
        rob = self.rob
        count = rob.count
        if count == 0:
            return
        entries = rob.entries
        head = rob.head
        entry = entries[head]
        if entry is None or entry.state != COMPLETED:
            return
        capacity = rob.capacity
        int_file = self.int_file
        fp_file = self.fp_file
        fp_offset = int_file.num_physical
        int_bank_size = int_file.bank_size
        int_bank_counts = int_file.bank_counts
        committed = 0
        width = self.config.commit_width
        while True:
            head = (head + 1) % capacity
            count -= 1
            for tag in entry.freed_on_commit:
                # Release the previous mappings: FP tags sit above the
                # integer file; integer registers (which dominate) are
                # released inline, as PhysicalRegisterFile.release does.
                if tag >= fp_offset:
                    fp_file.release(tag - fp_offset)
                else:
                    int_file._free_mask |= 1 << tag
                    int_file.allocated -= 1
                    int_file.free_count += 1
                    bank = tag // int_bank_size
                    int_bank_counts[bank] -= 1
                    if int_bank_counts[bank] == 0:
                        int_file.active_banks -= 1
            committed += 1
            self._committed_total += 1
            if self._warmup_done:
                stats = self.stats
                stats.committed_instructions += 1
                stats.committed_micro_ops += 1
            elif self._committed_total >= self.warmup_instructions:
                self._end_warmup()
            if committed >= width or count == 0:
                break
            entry = entries[head]
            if entry is None or entry.state != COMPLETED:
                break
        rob.head = head
        rob.count = count
        self._sample_dirty = True

    def _end_warmup(self) -> None:
        """Reset measurement counters at the end of the warm-up period.

        The measurement clock restarts at zero, so every piece of in-flight
        timing state expressed in absolute cycles — pending completion
        events, issue-queue ready cycles, fetch-queue decode times and the
        front-end resume cycle — is rebased into the new time base.
        Without the rebase, instructions in flight at the warm-up boundary
        would complete only when the new clock caught up with their old
        absolute completion cycles, stalling the machine for roughly the
        whole warm-up duration.
        """
        self._warmup_done = True
        preserved = SimulationStats(
            iq_banks_total=self.stats.iq_banks_total,
            rf_banks_total=self.stats.rf_banks_total,
        )
        self.stats = preserved
        shift = self.cycle
        self.cycle = 0
        self._sample_anchor = 0
        self._sample_dirty = True
        if shift:
            self._completion_events = {
                cycle - shift: entries
                for cycle, entries in self._completion_events.items()
            }
            for iq_entry in self._iq_entry_by_rob.values():
                iq_entry.ready_cycle -= shift
            self._fetch_queue = deque(
                (index, ready - shift, row)
                for index, ready, row in self._fetch_queue
            )
            self._fetch_resume_cycle -= shift
        self.policy.on_measurement_start(self, shift)
        self._wake = self.policy.next_wake_cycle()

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------
    def _writeback(self) -> None:
        finishing = self._completion_events.pop(self.cycle, None)
        if not finishing:
            return
        iq = self.iq
        iq_slots = iq.slots
        iq_consumers = iq._consumers
        iq_ready_by_age = iq._ready_by_age
        tag_ready = self._tag_ready
        int_phys = self.config.int_phys_regs
        blocked_seq = self._fetch_blocked_on_seq
        cycle = self.cycle
        broadcasts = 0
        cmp_gated = 0
        rf_writes = 0
        for entry in finishing:
            entry.state = COMPLETED
            for tag in entry.dest_tags:
                if tag < int_phys:
                    rf_writes += 1
                tag_ready[tag] = 1
                broadcasts += 1
                # The gated comparator count is the number of waiting
                # operands at the instant of this broadcast, so it must be
                # sampled before each wakeup, not once per writeback group.
                cmp_gated += iq.waiting_operand_count
                # Wakeup: the entries still resident and waiting on the
                # tag lose one waiting operand; the last one makes them
                # ready for select.
                consumers = iq_consumers.pop(tag, None)
                if consumers:
                    for waiter in consumers:
                        waiting = waiter.waiting_tags
                        if iq_slots[waiter.slot] is waiter and tag in waiting:
                            waiting.discard(tag)
                            iq.waiting_operand_count -= 1
                            if not waiting:
                                iq_ready_by_age[waiter.age] = waiter
            # Resolve a front-end block if this was the mispredicted branch.
            if blocked_seq is not None and entry.dyn == blocked_seq:
                blocked_seq = None
                self._fetch_blocked_on_seq = None
                # An I-miss on the blocked line may already hold fetch past
                # the redirect: the front end resumes at the later of the
                # two, never earlier.
                self._fetch_resume_cycle = max(
                    self._fetch_resume_cycle,
                    cycle + self.config.branch_mispredict_penalty,
                )
        self._sample_dirty = True
        if self._warmup_done and broadcasts:
            stats = self.stats
            stats.rf_writes += rf_writes
            stats.iq_broadcasts += broadcasts
            stats.iq_cmp_full += broadcasts * iq.cmp_full_per_broadcast
            stats.iq_cmp_gated += cmp_gated

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        ready_map = self.iq._ready_by_age
        if not ready_map:
            return
        issued = 0
        cycle = self.cycle
        width = self.config.issue_width
        int_phys = self.config.int_phys_regs
        fu_used = self._fu_used
        fu_limits = self._fu_limits
        iq = self.iq
        iq_slots = iq.slots
        iq_bank_size = iq.bank_size
        iq_bank_counts = iq.bank_counts
        iq_advance = iq._advance_pointers
        iq_entry_by_rob = self._iq_entry_by_rob
        rob_entries = self.rob.entries
        completion_events = self._completion_events
        rf_reads = 0
        for age in sorted(ready_map):
            if issued >= width:
                break
            entry = ready_map[age]
            if entry.ready_cycle > cycle:
                continue
            # Each unit class begins at most its unit count of
            # instructions per cycle; a ready entry whose class is spent
            # waits, and younger entries may still issue.
            fu = entry.fu_class
            used = fu_used[fu]
            if used >= fu_limits[fu]:
                continue
            fu_used[fu] = used + 1
            rob_index = entry.rob_index
            rob_entry = rob_entries[rob_index]
            # Remove the entry, leaving a hole (the queue does not
            # collapse); it is ready, so it holds no waiting operands.
            slot = entry.slot
            iq_slots[slot] = None
            iq.count -= 1
            bank = slot // iq_bank_size
            iq_bank_counts[bank] -= 1
            if iq_bank_counts[bank] == 0:
                iq.active_banks -= 1
            del ready_map[age]
            # Pointer advance is only needed when the removal opened a
            # hole at ``head`` or ``new_head``.
            if iq_slots[iq.head] is None or iq_slots[iq.new_head] is None:
                iq_advance()
            del iq_entry_by_rob[rob_index]
            rob_entry.state = ISSUED
            issued += 1
            for tag in rob_entry.source_tags:
                if tag < int_phys:
                    rf_reads += 1
            # Timing attributes were copied onto the ROB entry at
            # dispatch, so issue reads them there instead of resolving
            # the entry's row and indexing the table and trace again.
            flags = rob_entry.flags
            if flags & (F_LOAD | F_STORE):
                latency = self._memory_latency(
                    rob_entry.mem_addr, flags, rob_entry.latency
                )
            else:
                latency = rob_entry.latency
            finish = cycle + (latency if latency > 1 else 1)
            events = completion_events.get(finish)
            if events is None:
                completion_events[finish] = [rob_entry]
            else:
                events.append(rob_entry)
        if issued:
            self._sample_dirty = True
            if self._warmup_done:
                stats = self.stats
                stats.issued_instructions += issued
                stats.iq_issue_reads += issued
                stats.rf_reads += rf_reads

    def _memory_latency(self, mem_addr: int, flags: int, base_latency: int) -> int:
        """Data-cache access latency for a load/store at ``mem_addr``."""
        latency, l1_hit, l2_hit = self.memory.data_access_fast(mem_addr)
        if flags & F_LOAD:
            if self._warmup_done:
                stats = self.stats
                stats.l1d_accesses += 1
                if not l1_hit:
                    stats.l1d_misses += 1
                    stats.l2_accesses += 1
                if not l2_hit:
                    stats.l2_misses += 1
            return base_latency + latency
        if self._warmup_done:
            self.stats.l1d_accesses += 1
        return base_latency

    # ------------------------------------------------------------------
    # Dispatch (rename + issue-queue/ROB allocation)
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        fetch_queue = self._fetch_queue
        if not fetch_queue:
            return
        cycle = self.cycle
        if fetch_queue[0][1] > cycle:
            return
        mem_arr = self._trace.mem
        table = self._table
        flags_tab = table.flags
        fu_tab = table.fu
        specs = table.rename_specs
        iq_tags = table.iq_tag
        hint_values = table.hint_value
        lat_tab = table.latency
        dispatched = 0
        stalled_on_region = False
        stalled_on_physical = False
        width = self.config.dispatch_width
        policy = self.policy
        uses_hints = policy.uses_hints
        tag_ready = self._tag_ready
        stats = self.stats if self._warmup_done else None
        int_file = self.int_file
        fp_file = self.fp_file
        int_map = int_file.rename_map
        fp_allocate = fp_file.allocate
        fp_offset = int_file.num_physical
        rf_bank_size = int_file.bank_size
        rf_bank_counts = int_file.bank_counts
        rob = self.rob
        rob_limit = rob.limit
        rob_effective = rob.capacity if rob_limit is None else rob_limit
        rob_entries = rob.entries
        rob_capacity = rob.capacity
        iq = self.iq
        iq_capacity = iq.capacity
        iq_slots = iq.slots
        iq_pool = iq._pool
        iq_bank_size = iq.bank_size
        iq_bank_counts = iq.bank_counts
        iq_consumers = iq._consumers
        iq_ready_by_age = iq._ready_by_age
        iq_entry_by_rob = self._iq_entry_by_rob
        ready_cycle = cycle + 1
        # Structure counters touched once per dispatched instruction are
        # kept in locals and written back after the loop; policy hooks
        # (``on_hint``) only read ``iq.tail``, which is kept in sync just
        # before each hook call.
        rob_count = rob.count
        rob_tail = rob.tail
        iq_count = iq.count
        iq_span = iq.span
        iq_tail = iq.tail
        iq_age = iq._next_age
        int_free_mask = int_file._free_mask
        int_free_count = int_file.free_count
        int_allocated = int_file.allocated
        while dispatched < width and fetch_queue:
            index, decode_ready, row = fetch_queue[0]
            if decode_ready > cycle:
                break
            flags = flags_tab[row]

            # The paper's special NOOP: stripped in the last decode stage.
            # It consumes a dispatch slot (the source of the NOOP scheme's
            # small IPC cost) but never reaches the issue queue.
            if flags & (F_HINT | F_NOP):
                if flags & F_HINT:
                    if uses_hints:
                        iq.tail = iq_tail
                        policy.on_hint(self, hint_values[row])
                    if stats is not None:
                        stats.hint_noops_stripped += 1
                fetch_queue.popleft()
                dispatched += 1
                continue

            # Tag-carried hints (Extension/Improved) cost no dispatch slot.
            if uses_hints:
                tag_value = iq_tags[row]
                if tag_value is not None:
                    iq.tail = iq_tail
                    policy.on_hint(self, tag_value)
                    if stats is not None:
                        stats.tagged_instructions_seen += 1
                    # Policy hooks may toggle warm-up-independent state
                    # only, so the cached stats reference stays valid
                    # across the call.

            if rob_count >= rob_effective:
                break
            int_srcs, fp_srcs, int_dests, fp_dests = specs[row]
            if int_free_count < len(int_dests) or (
                fp_dests and fp_file.free_count < len(fp_dests)
            ):
                break
            # Issue-queue admission: the physical span, the global
            # limit (abella, fixed limits), then the current region's
            # extent from new_head to the tail (figure 2).
            if iq_span >= iq_capacity:
                stalled_on_physical = True
                break
            global_limit = iq.global_limit
            if global_limit is not None and iq_span >= global_limit:
                stalled_on_region = True
                break
            max_new_range = iq.max_new_range
            if (
                max_new_range is not None
                and iq_span
                and (iq_tail - iq.new_head) % iq_capacity >= max_new_range
            ):
                stalled_on_region = True
                break

            fetch_queue.popleft()
            if fp_srcs:
                fp_map = fp_file.rename_map
                source_tags = [int_map[arch] for arch in int_srcs] + [
                    fp_map[arch] + fp_offset for arch in fp_srcs
                ]
            else:
                source_tags = [int_map[arch] for arch in int_srcs]
            dest_tags = []
            freed = []
            for arch in int_dests:
                # Inlined PhysicalRegisterFile.allocate: the free_count
                # check above guarantees the mask is non-empty.
                lowest = int_free_mask & -int_free_mask
                int_free_mask ^= lowest
                new_phys = lowest.bit_length() - 1
                previous = int_map[arch]
                int_map[arch] = new_phys
                int_allocated += 1
                int_free_count -= 1
                bank = new_phys // rf_bank_size
                if rf_bank_counts[bank] == 0:
                    int_file.active_banks += 1
                rf_bank_counts[bank] += 1
                dest_tags.append(new_phys)
                freed.append(previous)
                tag_ready[new_phys] = 0
            for arch in fp_dests:
                new_phys, previous = fp_allocate(arch)
                dest_tags.append(new_phys + fp_offset)
                freed.append(previous + fp_offset)
                tag_ready[new_phys + fp_offset] = 0

            # Allocate the ROB tail entry (pooled; the checks above
            # guaranteed space).
            rob_entry = rob_entries[rob_tail]
            if rob_entry is None:
                rob_entry = RobEntry(index=rob_tail)
                rob_entries[rob_tail] = rob_entry
            rob_index = rob_tail
            rob_entry.dyn = index
            rob_entry.state = DISPATCHED
            rob_entry.dest_tags = dest_tags
            rob_entry.freed_on_commit = freed
            rob_entry.source_tags = source_tags
            rob_entry.flags = flags
            rob_entry.latency = lat_tab[row]
            rob_entry.mem_addr = mem_arr[index]
            rob_tail = (rob_tail + 1) % rob_capacity
            rob_count += 1

            # Allocate the issue-queue tail slot (pooled entries;
            # admission was checked above).  An entry with no waiting
            # operand is ready for select at once.
            waiting = {tag for tag in source_tags if not tag_ready[tag]}
            slot = iq_tail
            iq_entry = iq_pool[slot]
            if iq_entry is None:
                iq_entry = IssueQueueEntry(rob_index=rob_index, slot=slot)
                iq_pool[slot] = iq_entry
            iq_entry.rob_index = rob_index
            iq_entry.waiting_tags = waiting
            iq_entry.fu_class = fu_tab[row]
            iq_entry.ready_cycle = ready_cycle
            iq_entry.age = iq_age
            iq_slots[slot] = iq_entry
            iq_tail = (slot + 1) % iq_capacity
            iq_count += 1
            iq_span += 1
            bank = slot // iq_bank_size
            if iq_bank_counts[bank] == 0:
                iq.active_banks += 1
            iq_bank_counts[bank] += 1
            if waiting:
                iq.waiting_operand_count += len(waiting)
                for tag in waiting:
                    existing = iq_consumers.get(tag)
                    if existing is None:
                        iq_consumers[tag] = [iq_entry]
                    else:
                        existing.append(iq_entry)
            else:
                iq_ready_by_age[iq_age] = iq_entry
            iq_age += 1

            iq_entry_by_rob[rob_index] = iq_entry
            dispatched += 1
            if stats is not None:
                stats.dispatched_instructions += 1
                stats.iq_dispatch_writes += 1

        rob.count = rob_count
        rob.tail = rob_tail
        iq.count = iq_count
        iq.span = iq_span
        iq.tail = iq_tail
        iq._next_age = iq_age
        int_file._free_mask = int_free_mask
        int_file.free_count = int_free_count
        int_file.allocated = int_allocated
        if dispatched:
            self._sample_dirty = True
        if stats is not None:
            if stalled_on_region:
                stats.iq_dispatch_stall_cycles += 1
            if stalled_on_physical:
                stats.iq_full_stall_cycles += 1

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        if self._trace_exhausted:
            return
        if self._fetch_blocked_on_seq is not None:
            return
        cycle = self.cycle
        if cycle < self._fetch_resume_cycle:
            return

        config = self.config
        fetch_queue = self._fetch_queue
        queue_cap = config.fetch_queue_entries
        if len(fetch_queue) >= queue_cap:
            return
        trace = self._trace
        length = self._trace_length
        index = self._trace_pos
        pcs = trace.pc
        table = self._table
        flags_tab = table.flags
        base = table.base
        n_rows = len(flags_tab)
        append = fetch_queue.append
        warm = self._warmup_done
        stats = self.stats
        line_bytes = config.l1i.line_bytes
        decode_ready = cycle + config.decode_latency
        width = config.fetch_width
        last_line = self._last_fetch_line
        fetched = 0
        hints_fetched = 0
        while fetched < width and len(fetch_queue) < queue_cap:
            if index >= length:
                self._trace_exhausted = True
                break
            pc = pcs[index]
            offset = pc - base
            row = offset >> 2
            if offset & 3 or not 0 <= row < n_rows:
                table.row(pc)  # raises: no row describes this pc
            flags = flags_tab[row]
            if flags & F_HINT:
                hints_fetched += 1

            missed = False
            line = pc // line_bytes
            if line != last_line:
                last_line = line
                missed = self._fetch_line(pc, cycle)
            append((index, decode_ready, row))
            fetched += 1
            # A missed line still delivers this instruction, so it must
            # run branch prediction like any other: a branch fetched on a
            # missed line can mispredict and block the front end past the
            # miss itself.
            mispredicted = flags & F_CONTROL and self._handle_control_flow(
                index, flags, pc, trace.taken[index], trace.next_pc[index]
            )
            index += 1
            if missed or mispredicted:
                break  # stop fetching this cycle
        self._trace_pos = index
        self._last_fetch_line = last_line
        if warm and fetched:
            stats.fetched_instructions += fetched
            stats.hint_noops_fetched += hints_fetched

    def _fetch_expanding(self) -> None:
        """:meth:`_fetch` for a stream with a hint map.

        Entry by entry through the stripped trace, fetch takes the
        entry's hint run first (its taken run after a taken transfer
        other than a return, else its sequential run), then the entry at
        its own row; after the last entry comes the tail run, and no
        entry is fetched past the budget.  A hint's queue position is
        the entry it precedes (the last entry for the tail).
        """
        if self._trace_exhausted:
            return
        if self._fetch_blocked_on_seq is not None:
            return
        cycle = self.cycle
        if cycle < self._fetch_resume_cycle:
            return

        config = self.config
        fetch_queue = self._fetch_queue
        queue_cap = config.fetch_queue_entries
        if len(fetch_queue) >= queue_cap:
            return
        hints = self._hints
        runs = hints.runs
        own_rows = runs.rows
        budget = hints.budget
        trace = self._trace
        index = self._trace_pos
        pending = self._pending
        hint_row = self._hint_row
        entry_row = self._entry_row
        total = self._fetched_total
        table = self._table
        flags_tab = table.flags
        base = table.base
        append = fetch_queue.append
        warm = self._warmup_done
        stats = self.stats
        line_bytes = config.l1i.line_bytes
        decode_ready = cycle + config.decode_latency
        width = config.fetch_width
        last_line = self._last_fetch_line
        fetched = 0
        hints_fetched = 0
        while fetched < width and len(fetch_queue) < queue_cap:
            if total >= budget:
                self._trace_exhausted = True
                break
            if pending < 0:
                # First visit to the entry at ``index``: find its run.
                if index >= self._trace_length:
                    self._in_tail = True
                    pending = hints.tail_count
                    hint_row = hints.tail_row
                if not self._in_tail:
                    stripped = self._stripped_row(trace.pc[index])
                    entry_row = own_rows[stripped]
                    pending = (runs.taken if self._after_taken else runs.sequential)[
                        stripped
                    ]
                    hint_row = entry_row - pending
            entry = not pending
            if entry:
                if self._in_tail:
                    self._trace_exhausted = True
                    break
                row = entry_row
                position = index
                pending = -1
            else:
                row = hint_row
                hint_row += 1
                pending -= 1
                position = index - 1 if self._in_tail else index
            total += 1
            pc = base + 4 * row
            flags = flags_tab[row]
            if flags & F_HINT:
                hints_fetched += 1

            missed = mispredicted = False
            line = pc // line_bytes
            if line != last_line:
                last_line = line
                missed = self._fetch_line(pc, cycle)
            append((position, decode_ready, row))
            fetched += 1
            if entry:
                taken = trace.taken[index]
                if flags & F_CONTROL:
                    next_pc = 0
                    if flags & (F_BRANCH | F_RET):
                        next_pc = self._hinted_next_pc(
                            trace.pc[index], trace.next_pc[index], taken, flags, pc
                        )
                    mispredicted = self._handle_control_flow(
                        index, flags, pc, taken, next_pc
                    )
                self._after_taken = bool(taken) and not flags & F_RET
                index += 1
            if missed or mispredicted:
                break  # stop fetching this cycle
        self._trace_pos = index
        self._pending = pending
        self._hint_row = hint_row
        self._entry_row = entry_row
        self._fetched_total = total
        self._last_fetch_line = last_line
        if warm and fetched:
            stats.fetched_instructions += fetched
            stats.hint_noops_fetched += hints_fetched

    def _fetch_line(self, pc: int, cycle: int) -> bool:
        """Instruction-cache access when fetch reaches a new line of
        ``pc``; True on an L1I miss, which holds fetch until the line
        arrives."""
        latency, l1_hit, _ = self.memory.instruction_fetch_fast(pc)
        if self._warmup_done:
            stats = self.stats
            stats.l1i_accesses += 1
            if not l1_hit:
                stats.l1i_misses += 1
        if l1_hit:
            return False
        self._fetch_resume_cycle = cycle + latency
        return True

    def _stripped_row(self, pc: int) -> int:
        """The stripped-layout row of ``pc``; ``ValueError`` when the hint
        map has none."""
        offset = pc - self._table.base
        row = offset >> 2
        rows = len(self._hints.runs.rows)
        if offset & 3 or not 0 <= row < rows:
            raise ValueError(
                f"trace pc {pc:#x} names no static instruction (stripped layout "
                f"base {self._table.base:#x}, {rows} rows)"
            )
        return row

    def _hinted_next_pc(
        self, stripped_pc: int, stripped_next: int, taken: int, flags: int, pc: int
    ) -> int:
        """The own-layout next pc of a branch or return at own pc ``pc``:
        the first hint fetched after it, else the next entry's pc."""
        hints = self._hints
        base = self._table.base
        if not stripped_next:
            # The trace ends: the tail run, if any, follows.
            return base + 4 * hints.tail_row if hints.tail_count else 0
        if flags & F_RET and stripped_next == stripped_pc + 4:
            return pc + 4  # a return from the entry procedure ends the trace
        runs = hints.runs
        row = self._stripped_row(stripped_next)
        count = (runs.taken if taken and not flags & F_RET else runs.sequential)[row]
        return base + 4 * (runs.rows[row] - count)

    def _handle_control_flow(
        self, index: int, flags: int, pc: int, taken: int, next_pc: int
    ) -> bool:
        """Run branch prediction for the instruction at ``index``, the
        global trace position, with its pc, outcome and next pc.

        Returns True if fetch must stop (the transfer mispredicted).
        """
        mispredicted = False
        if flags & F_BRANCH:
            if self._warmup_done:
                self.stats.branches += 1
            mispredicted = not self.predictor.predict_and_update(pc, taken != 0, next_pc)
            if mispredicted and self._warmup_done:
                self.stats.branch_mispredicts += 1
        elif flags & F_CALL:
            self.predictor.push_return_address(pc + 4)
        elif flags & F_RET:
            correct = self.predictor.predict_return(next_pc)
            mispredicted = not correct
            if mispredicted and self._warmup_done:
                self.stats.ras_mispredicts += 1

        if mispredicted:
            self._fetch_blocked_on_seq = index
        return mispredicted

    # ------------------------------------------------------------------
    # Event-driven sampling
    # ------------------------------------------------------------------
    def _flush_sample(self) -> None:
        """Fold the previous snapshot over the cycles it stayed valid.

        Called at the end of any cycle in which a stage changed one of the
        six sampled quantities; cycles in between carried the unchanged
        snapshot, so the accumulated sums equal per-cycle sampling exactly.
        """
        cycle = self.cycle
        pending = cycle - self._sample_anchor
        if pending:
            stats = self.stats
            snap = self._sample_snapshot
            stats.sampled_cycles += pending
            stats.iq_occupancy_sum += snap[0] * pending
            stats.iq_waiting_operand_sum += snap[1] * pending
            stats.iq_banks_on_sum += snap[2] * pending
            stats.rf_banks_on_sum += snap[3] * pending
            stats.rf_live_regs_sum += snap[4] * pending
            stats.rf_inflight_sum += snap[5] * pending
        iq = self.iq
        int_file = self.int_file
        policy = self.policy
        self._sample_snapshot = (
            iq.count,
            iq.waiting_operand_count,
            iq.active_banks if policy.iq_bank_gating else iq.num_banks,
            int_file.active_banks if policy.rf_bank_gating else int_file.num_banks,
            int_file.allocated,
            self.rob.count,
        )
        self._sample_anchor = cycle
        self._sample_dirty = False

    def _finalize_sample(self) -> None:
        """Account the trailing unchanged cycles at the end of the run.

        A flush folds ``[anchor, cycle)`` with the standing snapshot and
        re-anchors at the current cycle, which is exactly the trailing
        correction needed here (and also covers a dirty snapshot left by
        a caller driving stages manually).
        """
        if self._warmup_done:
            self._flush_sample()



@register_engine
class ScalarEngine(ReplayEngine):
    """The pure-Python reference kernel (``engine="scalar"``).

    A mechanical extraction of the pre-existing replay loop behind the
    engine interface: behaviour is frozen, and every other kernel is
    validated bit-for-bit against it.
    """

    name = "scalar"

    def build_core(
        self,
        trace,
        *,
        config=None,
        policy=None,
        warmup_instructions: int = 0,
        max_cycles: Optional[int] = None,
    ) -> OutOfOrderCore:
        return OutOfOrderCore(
            trace,
            config=config,
            policy=policy,
            warmup_instructions=warmup_instructions,
            max_cycles=max_cycles,
        )
