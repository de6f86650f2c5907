"""The hardware-adaptive baseline: Abella & González's IqRob64 scheme.

The paper compares against "IqRob64" from Abella & González [2, 1]: a
hardware heuristic that periodically adapts both the usable issue-queue
size and the usable ROB size.  Every evaluation interval the mechanism
tries to shrink the structures to save power, and grows them back when the
measured performance degrades beyond a tolerance.  Because the decision is
based on *past* behaviour, rapid program phase changes are followed with a
delay -- the effect the paper identifies as the inherent weakness of purely
hardware schemes (section 1), and the reason the compiler-directed approach
can both save more power and lose less performance.

The parameters below (interval length, tolerance, resize step) were chosen
so the scheme is a competitive hardware baseline on the synthetic suite.
Measured at the 100k/20k figure budget, its SPECINT IPC loss is 0.74%,
below the software NOOP scheme's 1.42% and Extension's 1.3% and above
Improved's 0.4%, with comparable power savings.  The paper reports the
opposite ordering against NOOP (3.1% against 2.2%); its reference
values live in :mod:`repro.harness.figures`.
"""

from __future__ import annotations

from repro.techniques.base import ResizingPolicy


class AbellaPolicy(ResizingPolicy):
    """Interval-based adaptive limiting of the issue queue and ROB."""

    name = "abella"
    wakeup_gating = "nonempty"
    iq_bank_gating = True
    rf_bank_gating = True
    uses_hints = False

    def __init__(
        self,
        interval_cycles: int = 768,
        slowdown_tolerance: float = 0.01,
        step_entries: int = 8,
        min_entries: int = 48,
        rob_ratio: float = 1.75,
        grow_steps: int = 2,
    ):
        """Create the adaptive policy.

        Args:
            interval_cycles: cycles between resize decisions.
            slowdown_tolerance: IPC degradation (relative to the best recent
                interval) that triggers growing the structures back.
            step_entries: entries added/removed per decision (one bank).
            min_entries: smallest issue-queue limit the heuristic may reach.
            rob_ratio: the ROB limit is kept at ``rob_ratio`` times the
                issue-queue limit (IqRob64 scales both structures together).
        """
        self.interval_cycles = interval_cycles
        self.slowdown_tolerance = slowdown_tolerance
        self.step_entries = step_entries
        self.min_entries = min_entries
        self.rob_ratio = rob_ratio
        self.grow_steps = grow_steps

        self._limit = 0
        self._best_interval_ipc = 0.0
        self._interval_start_cycle = 0
        self._interval_start_committed = 0
        self.decisions: list[tuple[int, int]] = []  # (cycle, new limit)

    # ------------------------------------------------------------------
    def on_simulation_start(self, core) -> None:
        self._limit = core.config.iq_entries
        self._apply(core)
        self._interval_start_cycle = core.cycle
        self._interval_start_committed = core._committed_total
        self._best_interval_ipc = 0.0

    def on_measurement_start(self, core, cycle_shift: int) -> None:
        # Keep the interval phase across the boundary: the cycle anchor
        # shifts with the clock.  The committed anchor snapshots the
        # core's *architectural* commit count, which never resets, so it
        # needs no rebase — the hardware heuristic observes the machine,
        # not the measurement infrastructure, and behaves identically
        # wherever the warm-up boundary happens to fall.
        self._interval_start_cycle -= cycle_shift

    def next_wake_cycle(self) -> int:
        # on_cycle_end acts only once an interval has elapsed.
        return self._interval_start_cycle + self.interval_cycles

    def on_cycle_end(self, core) -> None:
        elapsed = core.cycle - self._interval_start_cycle
        if elapsed < self.interval_cycles:
            return
        committed = core._committed_total - self._interval_start_committed
        interval_ipc = committed / max(1, elapsed)

        if self._best_interval_ipc > 0 and interval_ipc < self._best_interval_ipc * (
            1.0 - self.slowdown_tolerance
        ):
            # Performance dropped: give entries back quickly (the heuristic
            # is deliberately asymmetric, as in the original proposal).
            self._limit = min(
                core.config.iq_entries,
                self._limit + self.grow_steps * self.step_entries,
            )
        else:
            # Performance acceptable: try to shrink and save power.
            self._limit = max(self.min_entries, self._limit - self.step_entries)

        self._best_interval_ipc = max(
            interval_ipc, self._best_interval_ipc * 0.97  # slow decay tracks phases
        )
        self._apply(core)
        self.decisions.append((core.cycle, self._limit))
        self._interval_start_cycle = core.cycle
        self._interval_start_committed = core._committed_total

    # ------------------------------------------------------------------
    def _apply(self, core) -> None:
        core.iq.set_global_limit(self._limit)
        core.rob.set_limit(int(self._limit * self.rob_ratio))

    @property
    def current_limit(self) -> int:
        """The issue-queue limit currently imposed by the heuristic."""
        return self._limit
