"""Simulation statistics and power-event counters.

The timing core records *architectural events*; the power model
(:mod:`repro.power`) turns them into energy numbers.  Keeping the two apart
means a single simulation run can be re-costed under different energy
parameters (used by the calibration tests and the ablation benches).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimulationStats:
    """Event counts produced by one simulation run.

    All counters are raw totals over the run; derived metrics (IPC, average
    occupancy, bank-off fractions) are exposed as properties.
    """

    # Progress.
    cycles: int = 0
    committed_instructions: int = 0
    committed_micro_ops: int = 0
    fetched_instructions: int = 0
    dispatched_instructions: int = 0
    issued_instructions: int = 0
    hint_noops_fetched: int = 0
    hint_noops_stripped: int = 0
    tagged_instructions_seen: int = 0

    # Branches.
    branches: int = 0
    branch_mispredicts: int = 0
    ras_mispredicts: int = 0

    # Caches.
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0

    # Issue queue occupancy / power events.
    iq_occupancy_sum: int = 0  # valid entries summed over cycles
    iq_waiting_operand_sum: int = 0  # non-ready operands summed over cycles
    iq_banks_on_sum: int = 0  # enabled banks summed over cycles
    iq_banks_total: int = 0  # configured bank count (for fractions)
    iq_broadcasts: int = 0  # result tag broadcasts
    iq_cmp_full: int = 0  # comparator ops, ungated CAM (all slots)
    iq_cmp_gated: int = 0  # comparator ops, empty/ready operands gated off
    iq_dispatch_writes: int = 0  # entries written at dispatch
    iq_issue_reads: int = 0  # entries read at issue
    iq_dispatch_stall_cycles: int = 0  # cycles dispatch stalled on the IQ limit
    iq_full_stall_cycles: int = 0  # cycles dispatch stalled on physical IQ space

    # Register file.
    rf_reads: int = 0
    rf_writes: int = 0
    rf_live_regs_sum: int = 0
    rf_banks_on_sum: int = 0
    rf_banks_total: int = 0
    rf_inflight_sum: int = 0  # dispatched-not-committed instructions per cycle

    # Per-cycle sample count for the averages above (== cycles normally).
    # The core accumulates these sums event-driven — folding each
    # quantity times the number of cycles it stayed constant at stage
    # boundaries rather than re-reading every structure every cycle —
    # which yields end-of-run values identical to per-cycle sampling.
    sampled_cycles: int = 0

    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (hint NOOPs excluded)."""
        if self.cycles == 0:
            return 0.0
        return self.committed_instructions / self.cycles

    @property
    def avg_iq_occupancy(self) -> float:
        """Mean number of valid issue-queue entries per cycle."""
        if self.sampled_cycles == 0:
            return 0.0
        return self.iq_occupancy_sum / self.sampled_cycles

    @property
    def avg_iq_banks_on(self) -> float:
        """Mean number of enabled issue-queue banks per cycle."""
        if self.sampled_cycles == 0:
            return 0.0
        return self.iq_banks_on_sum / self.sampled_cycles

    @property
    def iq_banks_off_fraction(self) -> float:
        """Fraction of bank-cycles spent turned off."""
        if self.sampled_cycles == 0 or self.iq_banks_total == 0:
            return 0.0
        total = self.sampled_cycles * self.iq_banks_total
        return 1.0 - self.iq_banks_on_sum / total

    @property
    def avg_rf_banks_on(self) -> float:
        """Mean number of enabled register-file banks per cycle."""
        if self.sampled_cycles == 0:
            return 0.0
        return self.rf_banks_on_sum / self.sampled_cycles

    @property
    def rf_banks_off_fraction(self) -> float:
        """Fraction of register-file bank-cycles spent turned off."""
        if self.sampled_cycles == 0 or self.rf_banks_total == 0:
            return 0.0
        total = self.sampled_cycles * self.rf_banks_total
        return 1.0 - self.rf_banks_on_sum / total

    @property
    def avg_inflight(self) -> float:
        """Mean dispatched-but-not-committed instructions per cycle."""
        if self.sampled_cycles == 0:
            return 0.0
        return self.rf_inflight_sum / self.sampled_cycles

    @property
    def branch_mispredict_rate(self) -> float:
        """Mispredicted fraction of executed conditional branches."""
        if self.branches == 0:
            return 0.0
        return self.branch_mispredicts / self.branches

    @property
    def l1d_miss_rate(self) -> float:
        """L1 data-cache miss rate."""
        if self.l1d_accesses == 0:
            return 0.0
        return self.l1d_misses / self.l1d_accesses

    def summary(self) -> dict[str, float]:
        """Compact dictionary of the headline metrics (for reports/tests)."""
        return {
            "cycles": float(self.cycles),
            "instructions": float(self.committed_instructions),
            "ipc": self.ipc,
            "avg_iq_occupancy": self.avg_iq_occupancy,
            "iq_banks_off_fraction": self.iq_banks_off_fraction,
            "rf_banks_off_fraction": self.rf_banks_off_fraction,
            "branch_mispredict_rate": self.branch_mispredict_rate,
            "l1d_miss_rate": self.l1d_miss_rate,
            "avg_inflight": self.avg_inflight,
        }
