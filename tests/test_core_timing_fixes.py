"""Regression tests for the warm-up clock, fetch-path and regfile-stats fixes.

Each test pins one of three timing/accounting bugs:

* resetting the measurement clock at the warm-up boundary used to leave
  in-flight completion events (and fetch/issue timestamps) in the old
  time base, stalling the machine for roughly the warm-up duration;
* an instruction fetched on a missed L1I line skipped branch prediction
  entirely, so such branches were never counted, never trained the
  predictor and never blocked the front end;
* integer register-file event counters included floating-point physical
  registers, and the read counter accumulated during warm-up while every
  other counter was gated.
"""

from __future__ import annotations

from repro.uarch import ProcessorConfig, simulate
from repro.uarch.config import CacheConfig
from repro.uarch.core import OutOfOrderCore
from repro.uarch.emulator import FunctionalEmulator
from repro.uarch.trace import F_HINT, F_NOP, TraceWindowStream
from repro.workloads import build_benchmark


class TestWarmupClockRebase:
    def test_measured_window_is_a_fraction_of_the_full_run(self):
        """The post-warm-up window must cost far fewer cycles than the run.

        Before the fix the machine waited for the new clock to catch up
        with stale completion events, so an 8000-instruction run measuring
        only its back half still reported nearly the full run's cycles.
        """
        program = build_benchmark("gzip")
        full = simulate(program, max_instructions=8_000, warmup_instructions=0)
        warm = simulate(program, max_instructions=8_000, warmup_instructions=4_000)
        assert warm.committed_instructions == 4_000
        assert warm.cycles < 0.8 * full.cycles

    def test_measured_cycles_are_additive_across_the_boundary(self):
        """front half + measured back half == whole run, give or take the
        pipeline drain at the front-half run's trace end.  With stale
        completion events the measured half alone exceeded the whole."""
        program = build_benchmark("gzip")
        prefix = simulate(program, max_instructions=4_000, warmup_instructions=0)
        full = simulate(program, max_instructions=8_000, warmup_instructions=0)
        warm = simulate(program, max_instructions=8_000, warmup_instructions=4_000)
        assert abs(prefix.cycles + warm.cycles - full.cycles) < 64

    def test_abella_keeps_deciding_after_the_rebase(self):
        """The adaptive policy's interval anchors must rebase with the
        clock; stale anchors froze its heuristic for the whole measured
        window (elapsed went negative until the new clock caught up)."""
        from repro.techniques import AbellaPolicy

        policy = AbellaPolicy(interval_cycles=768)
        stats = simulate(
            build_benchmark("gzip"),
            policy,
            max_instructions=8_000,
            warmup_instructions=4_000,
        )
        # A decision at a cycle below one interval length can only come
        # from an interval straddling the rebased boundary.
        assert any(cycle < policy.interval_cycles for cycle, _ in policy.decisions)
        assert stats.cycles > 2 * policy.interval_cycles

    def test_zero_cycle_warmup_boundary_is_safe(self):
        """warmup_instructions=0 still takes the no-rebase path."""
        program = build_benchmark("gzip")
        stats = simulate(program, max_instructions=1_000, warmup_instructions=0)
        assert stats.committed_instructions == 1_000


class TestBranchPredictionUnderIcacheMiss:
    def test_every_branch_is_predicted_despite_misses(self):
        """With a tiny L1I almost every fetch misses; branch counts must
        still match the trace exactly (one prediction per branch)."""
        program = build_benchmark("branchstorm")
        trace = list(FunctionalEmulator(program).run(max_instructions=3_000))
        expected_branches = sum(1 for dyn in trace if dyn.static.is_branch)
        assert expected_branches > 0

        config = ProcessorConfig.hpca2005()
        config.l1i = CacheConfig("l1i", 512, 1, 32, 1)
        core = OutOfOrderCore(TraceWindowStream.from_dynamic_stream(trace), config=config)
        stats = core.run()
        assert stats.l1i_misses > 100  # the scenario actually misses
        assert stats.branches == expected_branches

    def test_mispredicted_branch_on_missed_line_blocks_fetch(self):
        """A mispredict fetched on a missed line must stall the front end
        (before the fix it sailed through and fetch continued)."""
        program = build_benchmark("branchstorm")
        config = ProcessorConfig.hpca2005()
        config.l1i = CacheConfig("l1i", 512, 1, 32, 1)
        trace = FunctionalEmulator(program).run(max_instructions=3_000)
        core = OutOfOrderCore(TraceWindowStream.from_dynamic_stream(trace), config=config)
        stats = core.run()
        assert stats.branch_mispredicts > 0


class TestIntegerRegfileEventCounts:
    def _run(self, workload: str = "fpstream", warmup: int = 0) -> OutOfOrderCore:
        program = build_benchmark(workload)  # fpstream guarantees FP destinations
        trace = FunctionalEmulator(program).run(max_instructions=4_000)
        core = OutOfOrderCore(
            TraceWindowStream.from_dynamic_stream(trace), warmup_instructions=warmup
        )
        core.run()
        return core

    def test_rf_writes_exclude_fp_tags(self):
        program = build_benchmark("fpstream")
        trace = list(FunctionalEmulator(program).run(max_instructions=4_000))
        int_dests = sum(
            1 for dyn in trace for reg in dyn.static.dests if not reg.is_fp
        )
        all_dests = sum(len(dyn.static.dests) for dyn in trace)
        assert int_dests < all_dests  # FP traffic is present

        core = OutOfOrderCore(TraceWindowStream.from_dynamic_stream(trace))
        stats = core.run()
        assert stats.rf_writes == int_dests

    def test_rf_reads_count_integer_source_operands(self):
        """At warm-up 0 every entry that reaches the issue queue reads its
        integer sources once at issue, FP sources never: ``rf_reads`` is
        the integer source operands of the trace's entries other than
        hint NOOPs and NOPs, taken from the static table."""
        for workload in ("fpstream", "gzip"):
            core = self._run(workload)
            table = core._table
            expected = 0
            for pc in core._trace.pc:
                row = (pc - table.base) >> 2
                if not table.flags[row] & (F_HINT | F_NOP):
                    expected += len(table.rename_specs[row][0])
            assert core.stats.rf_reads == expected > 0, workload

    def test_rf_counts_respect_warmup_gating(self):
        warm = self._run(warmup=1_000)
        cold = self._run(warmup=0)
        # Gated: the measured window is strictly smaller than the full run.
        assert warm.stats.rf_reads < cold.stats.rf_reads
        assert warm.stats.rf_writes < cold.stats.rf_writes
