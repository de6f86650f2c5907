"""Policy interface shared by every issue-queue management technique."""

from __future__ import annotations

import abc
from typing import Optional

#: The hooks the replay kernels call.  A policy overriding none of them
#: is read by the kernels only through its three timing flags.
KERNEL_HOOKS: tuple[str, ...] = (
    "on_simulation_start",
    "on_measurement_start",
    "on_hint",
    "on_cycle_end",
    "next_wake_cycle",
    "hint_floor",
)


class ResizingPolicy(abc.ABC):
    """Base class for issue-queue management policies.

    Subclasses override the class attributes to declare their gating
    behaviour and the hooks to react to hints and cycle boundaries.  A
    subclass that overrides no hook is a pure timing class
    (:meth:`timing_class`) and may share its replay with its peers.  One
    whose hint response is the paper's stock rule reports its floor
    (:meth:`hint_floor`), and the native kernel then applies the rule
    without calling ``on_hint``.

    Attributes:
        name: short identifier used by the harness and reports.
        wakeup_gating: ``"full"`` for a conventional CAM that precharges and
            compares every operand slot on every broadcast, or
            ``"nonempty"`` when empty and already-ready operands are gated
            off (Folegnani & González).
        iq_bank_gating: True when issue-queue banks holding no valid entry
            are powered down.
        rf_bank_gating: True when register-file banks holding no allocated
            register are powered down.
        uses_hints: True when compiler hints (special NOOPs or instruction
            tags) drive the ``new_head``/``max_new_range`` mechanism.
    """

    name: str = "abstract"
    wakeup_gating: str = "full"
    iq_bank_gating: bool = False
    rf_bank_gating: bool = False
    uses_hints: bool = False

    def on_simulation_start(self, core) -> None:
        """Called once, after the core's structures exist."""

    def on_measurement_start(self, core, cycle_shift: int) -> None:
        """Called when warm-up ends and the measurement clock rebases.

        The core's clock restarts at zero (an old cycle ``c`` becomes
        ``c - cycle_shift``) and its statistics counters reset; policies
        holding absolute cycle anchors or counter snapshots must rebase
        them here or their heuristics stall until the new clock catches
        up with the stale anchors.
        """

    def on_hint(self, core, value: int) -> None:
        """Called when a hint NOOP is stripped or a tagged instruction
        dispatches (by the native kernel only when :meth:`hint_floor` is
        None)."""

    def on_cycle_end(self, core) -> None:
        """Called at the end of a cycle the policy asked to be woken at."""

    def next_wake_cycle(self) -> Optional[int]:
        """The cycle at whose end ``on_cycle_end`` next has work, or None.

        Kernels call ``on_cycle_end`` at the end of a cycle only once the
        core's clock has reached this value, and ask again after
        ``on_simulation_start``, ``on_measurement_start`` (in the rebased
        clock) and every ``on_cycle_end``.  The default wakes every cycle
        for a policy that overrides ``on_cycle_end``, and never otherwise.
        """
        if type(self).on_cycle_end is ResizingPolicy.on_cycle_end:
            return None
        return 0

    def timing_class(self) -> Optional[tuple[bool, bool, bool]]:
        """What the replay kernels read of this policy, or None.

        The kernels read a policy through ``uses_hints``,
        ``iq_bank_gating``, ``rf_bank_gating`` and the hooks of
        :data:`KERNEL_HOOKS`; ``wakeup_gating`` is read only by the power
        model.  So two policies that override no hook and return the same
        class here replay identically on the same program, machine and
        budgets, and the harness runs one replay for both (the baseline
        and nonEmpty share one).  A policy that overrides any hook, on
        its class or on the instance, returns None and never shares.
        """
        cls = type(self)
        for hook in KERNEL_HOOKS:
            if hook in vars(self) or getattr(cls, hook) is not getattr(ResizingPolicy, hook):
                return None
        return (bool(self.uses_hints), bool(self.iq_bank_gating), bool(self.rf_bank_gating))

    def hint_floor(self) -> Optional[int]:
        """The floor of the stock hint rule, if this policy follows it.

        The stock response to a hint of value ``v`` is the paper's
        dispatch rule (section 3): ``new_head`` moves to the tail and
        ``max_new_range`` becomes ``max(1, max(floor, v))``.  A policy
        whose ``on_hint`` is exactly that returns its floor, which the
        native kernel reads when a run starts and then applies the rule
        itself instead of calling ``on_hint``.  Every other policy
        returns None and has ``on_hint`` called at each hint.
        """
        return None

    def describe(self) -> dict:
        """Summary of the policy's static properties (for reports)."""
        return {
            "name": self.name,
            "wakeup_gating": self.wakeup_gating,
            "iq_bank_gating": self.iq_bank_gating,
            "rf_bank_gating": self.rf_bank_gating,
            "uses_hints": self.uses_hints,
        }
