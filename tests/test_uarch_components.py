"""Unit tests for the simulator's building blocks (:mod:`repro.uarch`).

What the structures do in a cycle (dispatch, wakeup, select, commit,
renaming, unit limits) is defined by the replay kernels' stages and
tested on them in ``tests/test_engines.py``; this module covers what the
components still define themselves: the configuration, the caches, the
predictor, the register file's free list, the geometry and capacity
errors and the clamps a policy's limits go through."""

from __future__ import annotations

import pytest

from repro.isa.opcodes import FuClass
from repro.uarch.branch import HybridBranchPredictor
from repro.uarch.cache import MemoryHierarchy, SetAssociativeCache
from repro.uarch.config import CacheConfig, ProcessorConfig
from repro.uarch.issue_queue import BankedIssueQueue, IssueQueueEntry
from repro.uarch.regfile import OutOfPhysicalRegisters, PhysicalRegisterFile
from repro.uarch.rob import ReorderBuffer


#: The smallest machine ``validate`` accepts in each field a drain needs;
#: ``tests/test_engines.py`` replays fpstream on it.
BOUNDARY = dict(
    fetch_queue_entries=1,
    fp_phys_regs=17,
    regfile_bank_size=1,
    fu_counts={fu: 1 for fu in FuClass},
)


class TestProcessorConfig:
    def test_table1_defaults(self):
        config = ProcessorConfig.hpca2005()
        assert config.iq_entries == 80
        assert config.rob_entries == 128
        assert config.int_phys_regs == 112
        assert config.iq_banks == 10
        assert config.int_regfile_banks == 14
        assert config.fu_counts[FuClass.INT_ALU] == 6
        assert config.l1d.hit_latency == 2
        config.validate()

    def test_validation_rejects_bad_values(self):
        config = ProcessorConfig(iq_entries=0)
        with pytest.raises(ValueError):
            config.validate()
        config = ProcessorConfig(int_phys_regs=16)
        with pytest.raises(ValueError):
            config.validate()

    @pytest.mark.parametrize(
        "field, below",
        [
            pytest.param("fetch_queue_entries", {"fetch_queue_entries": 0}, id="fetch-queue"),
            pytest.param("fp_phys_regs", {"fp_phys_regs": 16}, id="fp-regs"),
            pytest.param("regfile_bank_size", {"regfile_bank_size": 0}, id="rf-bank"),
            pytest.param(
                "fu_counts",
                {"fu_counts": {fu: 1 for fu in FuClass if fu is not FuClass.MEM_PORT}},
                id="no-MEM_PORT-key",
            ),
        ]
        + [
            pytest.param("fu_counts", {"fu_counts": {**BOUNDARY["fu_counts"], fu: 0}}, id=fu.name)
            for fu in FuClass
        ],
    )
    def test_validation_rejects_a_machine_that_cannot_drain(self, field, below):
        """One step below the boundary in any field a replay needs: a
        machine with no fetch queue, no FP register to rename into or no
        unit of some class (``NONE`` runs jumps, calls, returns, halts,
        nops and hints) never drains, and register banks of no registers
        divide by zero.  The error names the field."""
        ProcessorConfig(**BOUNDARY).validate()
        with pytest.raises(ValueError, match=field):
            ProcessorConfig(**{**BOUNDARY, **below}).validate()

    def test_cache_sets(self):
        cache = CacheConfig("x", 64 * 1024, 2, 32, 1)
        assert cache.num_sets == 1024


class TestCaches:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(CacheConfig("t", 1024, 2, 32, 1))
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True
        assert cache.access(0x11F) is True  # same 32-byte line

    def test_lru_eviction(self):
        cache = SetAssociativeCache(CacheConfig("t", 64, 1, 32, 1))  # 2 sets, direct mapped
        cache.access(0x0)
        cache.access(0x40)  # same set, evicts 0x0
        assert cache.access(0x40) is True
        assert cache.access(0x0) is False

    def test_hierarchy_latencies(self):
        hierarchy = MemoryHierarchy(ProcessorConfig.hpca2005())
        miss = hierarchy.data_access_fast(0x5000)
        hit = hierarchy.data_access_fast(0x5000)
        assert miss == (2 + 10 + 50, False, False)
        assert hit == (2, True, True)
        assert hierarchy.instruction_fetch_fast(0x5000) == (1 + 10, False, True)

    def test_l2_hit_faster_than_memory(self):
        config = ProcessorConfig.hpca2005()
        hierarchy = MemoryHierarchy(config)
        first, _, _ = hierarchy.data_access_fast(0x9000)  # misses everywhere
        hierarchy.l1d = SetAssociativeCache(config.l1d)  # clear L1 only
        second, l1_hit, l2_hit = hierarchy.data_access_fast(0x9000)
        assert (l1_hit, l2_hit) == (False, True)
        assert first > second > 2


class TestBranchPredictor:
    def test_learns_always_taken_branch(self):
        predictor = HybridBranchPredictor()
        outcomes = [
            predictor.predict_and_update(0x400, True, 0x800) for _ in range(20)
        ]
        assert outcomes[-1] is True

    def test_learns_not_taken_branch(self):
        predictor = HybridBranchPredictor()
        for _ in range(10):
            correct = predictor.predict_and_update(0x404, False, 0x800)
        assert correct is True

    def test_alternating_pattern_learned_by_gshare(self):
        predictor = HybridBranchPredictor()
        correct = 0
        for index in range(200):
            taken = index % 2 == 0
            if predictor.predict_and_update(0x500, taken, 0x900) and index >= 100:
                correct += 1
        assert correct > 80

    def test_return_address_stack(self):
        predictor = HybridBranchPredictor()
        predictor.push_return_address(0x1000)
        predictor.push_return_address(0x2000)
        assert predictor.predict_return(0x2000) is True
        assert predictor.predict_return(0x1000) is True
        assert predictor.predict_return(0x3000) is False  # empty stack


class TestReorderBuffer:
    def test_capacity_and_limit(self):
        """``set_limit`` (abella's ROB limit) clamps into 1..capacity."""
        rob = ReorderBuffer(8)
        for requested, clamped in ((0, 1), (5, 5), (99, 8), (None, None)):
            rob.set_limit(requested)
            assert rob.limit == clamped

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestPhysicalRegisterFile:
    def test_initial_mapping_identity(self):
        rf = PhysicalRegisterFile(112, 32, 8)
        assert rf.rename_map[5] == 5
        assert rf.free_count == 80
        assert rf.allocated == 32

    def test_allocate_and_release(self):
        rf = PhysicalRegisterFile(40, 32, 8)
        new, old = rf.allocate(3)
        assert rf.rename_map[3] == new and old == 3
        assert rf.free_count == 7
        rf.release(old)
        assert rf.free_count == 8

    def test_lowest_first_allocation_clusters_banks(self):
        rf = PhysicalRegisterFile(112, 32, 8)
        allocations = [rf.allocate(1)[0] for _ in range(8)]
        assert allocations == sorted(allocations)
        assert max(allocations) < 48  # stays in the low banks

    def test_exhaustion_raises(self):
        rf = PhysicalRegisterFile(33, 32, 8)
        rf.allocate(0)
        with pytest.raises(OutOfPhysicalRegisters):
            rf.allocate(1)

    def test_bank_gating_counts(self):
        rf = PhysicalRegisterFile(112, 32, 8)
        assert rf.num_banks == 14
        assert rf.active_banks == 4  # 32 regs in 4 banks of 8
        rf.allocate(0)  # register 32 opens bank 4
        assert rf.active_banks == 5 and rf.bank_counts[4] == 1


class TestBankedIssueQueue:
    def test_global_limit(self):
        """``set_global_limit`` clamps into one bank..capacity; None
        lifts the limit."""
        iq = BankedIssueQueue(capacity=16, bank_size=4)
        for requested, clamped in ((1, 4), (6, 6), (99, 16), (None, None)):
            iq.set_global_limit(requested)
            assert iq.global_limit == clamped

    def test_start_new_region_points_new_head_at_the_tail(self):
        iq = BankedIssueQueue(capacity=16, bank_size=4)
        iq.tail = 5
        iq.start_new_region(0)
        assert (iq.new_head, iq.max_new_range) == (5, 1)
        iq.start_new_region(7)
        assert iq.max_new_range == 7

    def test_advance_pointers_slides_across_the_wrap(self):
        """``_advance_pointers`` (the scalar issue stage's slide after a
        removal; ``iq_advance`` in C) moves ``head`` past holes modulo the
        capacity and ``new_head`` past the region's issued oldest entry
        (figure 2), never leaves ``new_head`` behind ``head``, and puts
        both at the tail once the queue is empty."""
        iq = BankedIssueQueue(capacity=8, bank_size=4)
        for slot in (6, 7, 0, 1, 2):
            iq.slots[slot] = IssueQueueEntry(rob_index=slot, slot=slot)
        iq.head, iq.tail, iq.span = 6, 3, 5
        iq.new_head = 7  # the region holds slots 7, 0, 1 and 2

        def issue(*slots):
            for slot in slots:
                iq.slots[slot] = None
            iq._advance_pointers()
            return iq.head, iq.span, iq.new_head

        assert issue(7) == (6, 5, 0)  # new_head wraps; head stays on slot 6
        assert issue(6, 0) == (1, 2, 1)  # head passes new_head, which follows
        assert issue(2) == (1, 2, 1)  # a hole behind the head entry moves nothing
        assert issue(1) == (3, 0, 3)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            BankedIssueQueue(0, 8)
