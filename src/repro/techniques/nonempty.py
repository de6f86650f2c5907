"""Folegnani & González precharge gating (the ``nonEmpty`` comparison point).

Figure 8's ``nonEmpty`` bar shows the dynamic power saved in the issue
queue "if only non-empty instructions are woken": the queue keeps its full
size and timing behaviour (so IPC is identical to the baseline), but the
wakeup CAM no longer precharges empty or already-ready operand slots.
No banks are turned off, so it provides no static savings.

Its replay is the baseline's: it overrides no hook and shares the
baseline's timing flags, so :meth:`~repro.techniques.base.ResizingPolicy.timing_class`
puts both in one class and the harness replays the pair once, costing
each cell's power under its own gating.  The kernels count both
``iq_cmp_full`` and ``iq_cmp_gated`` on every replay, and the power
model picks one by ``wakeup_gating``.
"""

from __future__ import annotations

from repro.techniques.base import ResizingPolicy


class NonEmptyPolicy(ResizingPolicy):
    """Full-size queue with empty/ready operand wakeup gating."""

    name = "nonempty"
    wakeup_gating = "nonempty"
    iq_bank_gating = False
    rf_bank_gating = False
    uses_hints = False
