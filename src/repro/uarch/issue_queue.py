"""The banked, non-collapsing issue queue with compiler control hooks.

This models the paper's issue queue (section 3.1):

* a circular, **non-collapsing** buffer (issued entries leave holes; the
  head simply advances past them), as in Folegnani & González, Buyuktosunoglu
  et al. and Abella & González;
* organised in banks whose CAM and RAM arrays can be turned off together
  when the bank holds no valid entry;
* a conventional ``head``/``tail`` pair plus the paper's ``new_head``
  pointer and ``max_new_range`` register.  ``new_head`` marks the oldest
  entry of the *current program region*; dispatch stops whenever the
  distance from ``new_head`` to ``tail`` would exceed ``max_new_range``.
  When the entry ``new_head`` points at issues, the pointer slides towards
  the tail (figure 2), freeing dispatch slots for the region.

:class:`BankedIssueQueue` holds the queue's state and the three
operations a policy or both kernels share: :meth:`start_new_region` and
:meth:`set_global_limit` (the control a resizing policy applies, with
its clamping) and :meth:`_advance_pointers` (the head and ``new_head``
slide, which the native kernel's ``iq_advance`` mirrors).  Dispatch,
wakeup, select and removal are defined by the scalar kernel's stage
methods (:class:`~repro.uarch.engine.scalar.OutOfOrderCore`), which
update these fields in place, and by the native kernel's stages in
``_native.c``; ``tests/test_engines.py`` holds the two to each other
and to figure 2's transitions.

The queue also keeps the power-relevant event counts: waiting (non-ready,
non-empty) operands for gated wakeup energy, total slots for ungated wakeup
energy, and per-bank occupancy for static gating.  ``active_banks`` is
maintained incrementally (a bank counts while it holds at least one valid
entry) so the per-cycle sampler reads one attribute instead of scanning
``bank_counts``.

Entry objects are pooled per slot: a slot lazily creates one
:class:`IssueQueueEntry` and reuses it for every instruction that later
occupies the slot.
"""

from __future__ import annotations

from typing import Optional


class IssueQueueEntry:
    """One valid issue-queue slot.

    Attributes:
        rob_index: the owning reorder-buffer entry.
        slot: slot index inside the queue.
        waiting_tags: physical-register tags still outstanding (a set the
            entry owns; wakeup discards from it).
        fu_class: the :data:`~repro.isa.opcodes.FU_INDEX` ordinal of the
            functional-unit class needed to issue.
        ready_cycle: earliest cycle the entry may issue (used to enforce the
            one-cycle wakeup-to-issue ordering for operands that were ready
            at dispatch time).
        age: monotonically increasing allocation number.  The tail advances
            one slot per allocation and never overtakes the head, so
            allocation order equals head-to-tail (oldest-first) order; the
            ready set sorts on this instead of walking the circular buffer.
    """

    __slots__ = (
        "rob_index",
        "slot",
        "waiting_tags",
        "fu_class",
        "ready_cycle",
        "age",
    )

    def __init__(self, rob_index: int, slot: int):
        self.rob_index = rob_index
        self.slot = slot
        self.waiting_tags: set[int] = set()
        self.fu_class = 0
        self.ready_cycle = 0
        self.age = 0


class BankedIssueQueue:
    """Circular non-collapsing issue queue with bank gating and ``new_head``."""

    def __init__(self, capacity: int, bank_size: int):
        if capacity <= 0 or bank_size <= 0:
            raise ValueError("issue queue capacity and bank size must be positive")
        self.capacity = capacity
        self.bank_size = bank_size
        self.num_banks = (capacity + bank_size - 1) // bank_size

        self.slots: list[Optional[IssueQueueEntry]] = [None] * capacity
        self._pool: list[Optional[IssueQueueEntry]] = [None] * capacity
        self.head = 0
        self.tail = 0
        self.new_head = 0
        self.count = 0
        self.span = 0  # slots between head and tail, holes included
        self.max_new_range: Optional[int] = None
        self.global_limit: Optional[int] = None

        self.bank_counts = [0] * self.num_banks
        self.active_banks = 0  # banks currently holding >= 1 valid entry
        self.waiting_operand_count = 0
        # Ungated comparator operations per result broadcast: every operand
        # slot of the whole queue precharges and compares (two per entry).
        self.cmp_full_per_broadcast = 2 * capacity
        # consumers maps a physical-register tag to the entries waiting on it.
        self._consumers: dict[int, list[IssueQueueEntry]] = {}
        # Incrementally maintained set of ready entries keyed by age, so the
        # per-cycle select stage never walks the whole circular buffer.
        self._ready_by_age: dict[int, IssueQueueEntry] = {}
        self._next_age = 0

    # ------------------------------------------------------------------
    # Compiler / policy control
    # ------------------------------------------------------------------
    def start_new_region(self, max_new_range: int) -> None:
        """Begin a new program region: ``new_head`` <- ``tail`` (section 3.2)."""
        self.new_head = self.tail
        self.max_new_range = max(1, max_new_range)

    def set_global_limit(self, limit: Optional[int]) -> None:
        """Set a hardware-imposed cap on total queue extent (abella-style)."""
        if limit is not None:
            limit = max(self.bank_size, min(limit, self.capacity))
        self.global_limit = limit

    # ------------------------------------------------------------------
    # Issue: the pointer slide after a removal
    # ------------------------------------------------------------------
    def _advance_pointers(self) -> None:
        """Slide ``head`` and ``new_head`` past holes towards the tail.

        The scalar issue stage calls this after a removal that left a
        hole at ``head`` or ``new_head``; sliding ``new_head`` is what
        frees a full region's dispatch slots (figure 2).
        """
        slots = self.slots
        capacity = self.capacity
        head = self.head
        span = self.span
        while span > 0 and slots[head] is None:
            head = (head + 1) % capacity
            span -= 1
        self.head = head
        self.span = span
        if span == 0:
            self.head = self.tail
            self.new_head = self.tail
            return
        # new_head behaves like head but never falls behind it.
        new_head = self.new_head
        if (new_head - head) % capacity > span:
            new_head = head
        tail = self.tail
        while new_head != tail and slots[new_head] is None:
            new_head = (new_head + 1) % capacity
        self.new_head = new_head
