"""Reorder buffer.

A 128-entry circular buffer (table 1).  Entries progress through the states
*dispatched* -> *issued* -> *completed* and commit in order from the head.
The abella (IqRob64) baseline additionally limits how many ROB entries may
be occupied, which is supported through :meth:`ReorderBuffer.set_limit`.

:class:`ReorderBuffer` holds the ring's state and the limit a policy sets.
Allocation (dispatch), the state transitions (issue, writeback) and
in-order retirement (commit) are defined by the scalar kernel's stage
methods (:class:`~repro.uarch.engine.scalar.OutOfOrderCore`), which
update these fields in place, and by the native kernel's stages in
``_native.c``.

Entry objects are pooled: each ring slot lazily creates one
:class:`RobEntry` and reuses it for every instruction that later occupies
the slot, so steady-state allocation performs no object construction.  An
entry is live exactly while its slot lies in the head..tail window
(``count`` tracks the extent).
"""

from __future__ import annotations

from typing import Optional


DISPATCHED = 0
ISSUED = 1
COMPLETED = 2


class RobEntry:
    """One reorder-buffer entry.

    Attributes:
        index: position in the circular buffer.
        dyn: the dynamic instruction's trace index.
        state: DISPATCHED, ISSUED or COMPLETED.
        dest_tags: physical registers written by the instruction.
        freed_on_commit: physical registers released when it commits.
        source_tags: physical registers read (for register-file accounting).
        flags / latency / mem_addr: the instruction's pre-decoded timing
            attributes, copied from its static row and trace entry at
            dispatch, so later stages (issue, execute) read them off the
            entry they hold instead of resolving its row and indexing the
            table and the trace again.
    """

    __slots__ = (
        "index",
        "dyn",
        "state",
        "dest_tags",
        "freed_on_commit",
        "source_tags",
        "flags",
        "latency",
        "mem_addr",
    )

    def __init__(self, index: int):
        self.index = index
        self.dyn = 0
        self.state = DISPATCHED
        self.dest_tags: list[int] = []
        self.freed_on_commit: list[int] = []
        self.source_tags: list[int] = []
        self.flags = 0
        self.latency = 1
        self.mem_addr = 0


class ReorderBuffer:
    """In-order allocate / out-of-order complete / in-order commit buffer."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self.entries: list[Optional[RobEntry]] = [None] * capacity
        self.head = 0
        self.tail = 0
        self.count = 0
        self.limit: Optional[int] = None

    def set_limit(self, limit: Optional[int]) -> None:
        """Cap occupancy below the physical capacity (abella's ROB limiting)."""
        if limit is not None:
            limit = max(1, min(limit, self.capacity))
        self.limit = limit
