"""The paper's technique: software-directed issue-queue resizing.

The compiler (see :mod:`repro.core`) annotates the program with the number
of issue-queue entries each region needs.  At dispatch the processor reads
the hint (from a stripped special NOOP or an instruction tag), points
``new_head`` at the tail and sets ``max_new_range``; dispatch then stops
whenever the current region already occupies its allotted entries.

The NOOP, Extension and Improved variants of the paper use this same
policy; they differ only in how the program was instrumented (NOOP
insertion versus tagging, and whether the inter-procedural refinement was
applied), which is a property of the compiled program, not of the hardware
policy.

Its ``on_hint`` is the stock hint rule
(:meth:`~repro.techniques.base.ResizingPolicy.hint_floor`), so the native
kernel applies it in C and only reports back how many hints it applied
and the last one; the scalar kernel, and the native kernel under a
subclass that overrides ``on_hint``, call ``on_hint`` itself.  Either
way ``hints_applied`` and ``last_hint_value`` read the same after a run.
The policy still overrides a kernel hook, so it has no timing class and
never shares a replay.
"""

from __future__ import annotations

from typing import Optional

from repro.techniques.base import ResizingPolicy


class SoftwareDirectedPolicy(ResizingPolicy):
    """Honour compiler hints through the ``new_head``/``max_new_range`` mechanism."""

    name = "software"
    wakeup_gating = "nonempty"
    iq_bank_gating = True
    rf_bank_gating = True
    uses_hints = True

    def __init__(self, variant: str = "noop", min_region_entries: int = 2):
        """Create the policy.

        Args:
            variant: label recorded in reports ("noop", "extension" or
                "improved"); the hardware behaviour is identical.
            min_region_entries: lower clamp applied to incoming hints
                (guards against a malformed zero-sized request).
        """
        self.variant = variant
        self.min_region_entries = min_region_entries
        self.name = f"software-{variant}"
        self.hints_applied = 0
        self.last_hint_value = 0

    def on_hint(self, core, value: int) -> None:
        entries = max(self.min_region_entries, int(value))
        core.iq.start_new_region(entries)
        self.hints_applied += 1
        self.last_hint_value = entries

    def hint_floor(self) -> Optional[int]:
        """``min_region_entries``, unless ``on_hint`` is overridden on the
        class or the instance."""
        if "on_hint" in vars(self) or type(self).on_hint is not SoftwareDirectedPolicy.on_hint:
            return None
        return self.min_region_entries
