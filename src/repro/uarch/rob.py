"""Reorder buffer.

A 128-entry circular buffer (table 1).  Entries progress through the states
*dispatched* -> *issued* -> *completed* and commit in order from the head.
The abella (IqRob64) baseline additionally limits how many ROB entries may
be occupied, which is supported through :meth:`ReorderBuffer.set_limit`.

Entry objects are pooled: each ring slot lazily creates one
:class:`RobEntry` and reuses it for every instruction that later occupies
the slot, so steady-state allocation performs no object construction.  An
entry is live exactly while its slot lies in the head..tail window
(``count`` tracks the extent), so recycled objects are never observable
through the public API.
"""

from __future__ import annotations

from typing import Optional


DISPATCHED = 0
ISSUED = 1
COMPLETED = 2

#: Shared placeholder for freshly (re)allocated entries' tag lists; the
#: dispatch stage overwrites these with the real rename results.
_NO_TAGS: tuple[int, ...] = ()


class RobEntry:
    """One reorder-buffer entry.

    Attributes:
        index: position in the circular buffer.
        dyn: the dynamic instruction — a trace index for the replay core.
        state: DISPATCHED, ISSUED or COMPLETED.
        dest_tags: physical registers written by the instruction.
        freed_on_commit: physical registers released when it commits.
        source_tags: physical registers read (for register-file accounting).
        completion_cycle: cycle at which execution finished.
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
        "completion_cycle",
        "flags",
        "latency",
        "mem_addr",
    )

    def __init__(
        self,
        index: int,
        dyn: object = None,
        state: int = DISPATCHED,
        dest_tags=None,
        freed_on_commit=None,
        source_tags=None,
        completion_cycle: int = 0,
    ):
        self.index = index
        self.dyn = dyn
        self.state = state
        self.dest_tags = dest_tags if dest_tags is not None else []
        self.freed_on_commit = freed_on_commit if freed_on_commit is not None else []
        self.source_tags = source_tags if source_tags is not None else []
        self.completion_cycle = completion_cycle
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

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of in-flight instructions."""
        return self.count

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def set_limit(self, limit: Optional[int]) -> None:
        """Cap occupancy below the physical capacity (abella's ROB limiting)."""
        if limit is not None:
            limit = max(1, min(limit, self.capacity))
        self.limit = limit

    def can_allocate(self) -> bool:
        """Whether one more instruction may be dispatched into the ROB."""
        effective = self.capacity if self.limit is None else self.limit
        return self.count < effective

    # ------------------------------------------------------------------
    def allocate(self, dyn) -> RobEntry:
        """Allocate the tail entry for ``dyn`` and return it."""
        if not self.can_allocate():
            raise RuntimeError("ROB allocate called while full")
        index = self.tail
        entry = self.entries[index]
        if entry is None:
            entry = RobEntry(index=index)
            self.entries[index] = entry
        entry.dyn = dyn
        entry.state = DISPATCHED
        entry.dest_tags = _NO_TAGS
        entry.freed_on_commit = _NO_TAGS
        entry.source_tags = _NO_TAGS
        entry.completion_cycle = 0
        self.tail = (index + 1) % self.capacity
        self.count += 1
        return entry

    def mark_issued(self, entry: RobEntry) -> None:
        """Record that the entry has left the issue queue."""
        entry.state = ISSUED

    def mark_completed(self, entry: RobEntry, cycle: int) -> None:
        """Record execution completion."""
        entry.state = COMPLETED
        entry.completion_cycle = cycle

    def commit_ready(self) -> Optional[RobEntry]:
        """The head entry if it has completed, else None."""
        if self.count == 0:
            return None
        entry = self.entries[self.head]
        if entry is not None and entry.state == COMPLETED:
            return entry
        return None

    def pop_completed(self) -> Optional[RobEntry]:
        """Retire and return the head entry if completed, else None.

        Single-call form of ``commit_ready`` + ``commit`` for the
        per-cycle commit loop, which otherwise checks the head twice per
        retired instruction.  The entry object stays in the ring for
        reuse; it is live only until the next wrap reaches its slot.
        """
        if self.count == 0:
            return None
        head = self.head
        entry = self.entries[head]
        if entry is None or entry.state != COMPLETED:
            return None
        self.head = (head + 1) % self.capacity
        self.count -= 1
        return entry

    def commit(self) -> RobEntry:
        """Retire the head entry and return it."""
        entry = self.pop_completed()
        if entry is None:
            raise RuntimeError("commit called with no completed head entry")
        return entry
