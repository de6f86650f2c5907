"""Configuration of the compiler analysis.

The analysis is deliberately independent of any particular hardware
configuration (section 1.2 of the paper), but it must know the resources it
schedules against: the processor's issue width, functional-unit counts and
the latency it should assume for memory operations (the paper assumes all
cache hits, section 4.2).  The defaults mirror table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.ddg import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FU_INDEX, FuClass

#: Functional-unit ordinals by the class's value, so turning
#: ``fu_counts`` into per-ordinal limits hashes strings, not enums.
_FU_ORDINAL = {fu._value_: ordinal for fu, ordinal in FU_INDEX.items()}


def default_fu_counts() -> dict[FuClass, int]:
    """Functional-unit counts from table 1 (plus 2 memory ports, the
    SimpleScalar default the paper's simulator inherits)."""
    return {
        FuClass.INT_ALU: 6,
        FuClass.INT_MUL: 3,
        FuClass.FP_ALU: 4,
        FuClass.FP_MULDIV: 2,
        FuClass.MEM_PORT: 2,
        FuClass.NONE: 10_000,  # control/no-op instructions are unconstrained
    }


@dataclass
class CompilerConfig:
    """Parameters of the compiler analysis.

    Attributes:
        issue_width: instructions the pseudo issue queue may issue per cycle.
        fu_counts: available functional units per class.
        assumed_l1_hit_latency: additional cycles the compiler charges a load
            beyond address generation (all accesses assumed L1 hits).
        max_iq_entries: the physical issue-queue capacity; requirements are
            clamped to this and library calls request this value.
        min_hint_value: lower clamp applied to emitted requirements.  A tiny
            floor avoids pathological throttling when a block is trivially
            small; the paper's blocks have the same effect because dispatch
            width bounds how fast a region fills anyway.
        merge_policy: how register-availability summaries from multiple
            control-flow predecessors are merged: ``"max"`` (conservative,
            the default) or ``"ready"`` (assume everything available).
        max_merge_preds: blocks with more predecessors than this fall back
            to the ``"ready"`` summary.  This models the paper's
            "conservative assumptions ... in the presence of complex control
            paths" that limit gcc's accuracy (section 5.3).
        hot_call_threshold: a callee invoked from at least this many call
            sites inside loops is considered *hot* for the Improved scheme's
            inter-procedural functional-unit-contention refinement.
        sizing_margin: multiplicative head-room applied to every emitted
            requirement.  The analysis deliberately ignores effects the
            compiler cannot see (cache misses, branch-resolution shadows,
            the non-collapsing queue's holes), exactly as the paper's does;
            the margin is the calibration constant that absorbs them.  It is
            the reproduction's stand-in for whatever slack the authors'
            MachineSUIF implementation carried implicitly, and it is the
            knob the ablation bench sweeps.
        sizing_slack: additive head-room applied together with
            ``sizing_margin``.
    """

    issue_width: int = 8
    fu_counts: dict[FuClass, int] = field(default_factory=default_fu_counts)
    assumed_l1_hit_latency: int = 2
    max_iq_entries: int = 80
    min_hint_value: int = 4
    merge_policy: str = "max"
    max_merge_preds: int = 4
    hot_call_threshold: int = 1
    sizing_margin: float = 1.6
    sizing_slack: int = 8

    def instruction_latency(self, instruction: Instruction) -> int:
        """Latency the compiler assumes for ``instruction``.

        Loads are assumed to hit in the L1 data cache (section 4.2); every
        other instruction uses its functional latency.  The analyses read
        the same value from each instruction's decode
        (:func:`~repro.cfg.ddg.decode`).
        """
        return decode(instruction, self.assumed_l1_hit_latency).latency

    def fu_limits(self) -> list[int]:
        """Units per functional-unit ordinal (``FU_INDEX``): ``fu_counts``,
        and the issue width for a class it does not name."""
        limits = [self.issue_width] * len(FU_INDEX)
        for fu, units in self.fu_counts.items():
            limits[_FU_ORDINAL[fu._value_]] = units
        return limits

    def clamp_requirement(self, entries: int) -> int:
        """Apply the sizing margin and clamp into the physical range."""
        with_margin = int(round(entries * self.sizing_margin)) + self.sizing_slack
        return max(self.min_hint_value, min(with_margin, self.max_iq_entries))
