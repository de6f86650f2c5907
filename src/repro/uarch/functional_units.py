"""Functional-unit pool.

Table 1: 6 integer ALUs (1 cycle), 3 integer multipliers (3 cycles), 4 FP
ALUs (2 cycles) and 2 FP multiply/divide units, plus 2 memory ports.  Units
are modelled as fully pipelined: the constraint enforced each cycle is how
many instructions of each class may *begin* execution, which is what limits
issue; occupancy of long-latency operations is captured by their latency.

The per-cycle bookkeeping is index-based: every :class:`FuClass` has a
stable ordinal (its position in the enum), and limits/usage/issue counts
live in flat lists indexed by that ordinal.  The replay core carries the
ordinal straight from the program's static table into
:meth:`FunctionalUnitPool.try_acquire_index`, so the issue loop performs
no enum hashing; the enum-keyed methods remain for tests and reports.
"""

from __future__ import annotations

from repro.isa.opcodes import FU_INDEX, FuClass

#: The classes in ordinal order (``FU_ORDER[FU_INDEX[fu]] is fu``).
FU_ORDER: tuple[FuClass, ...] = tuple(FuClass)


class FunctionalUnitPool:
    """Per-cycle issue bandwidth per functional-unit class."""

    def __init__(self, fu_counts: dict[FuClass, int]):
        self.fu_counts = dict(fu_counts)
        num_classes = len(FU_ORDER)
        self._limits = [self.fu_counts.get(fu, 0) for fu in FU_ORDER]
        self._used = [0] * num_classes
        self._zeros = [0] * num_classes
        self._issues = [0] * num_classes
        self.structural_stalls: int = 0

    def new_cycle(self) -> None:
        """Reset the per-cycle usage counters."""
        self._used[:] = self._zeros

    def try_acquire_index(self, fu_index: int) -> bool:
        """Reserve a unit of the class with ordinal ``fu_index`` this cycle."""
        used = self._used[fu_index]
        if used >= self._limits[fu_index]:
            self.structural_stalls += 1
            return False
        self._used[fu_index] = used + 1
        self._issues[fu_index] += 1
        return True

    def try_acquire(self, fu_class: FuClass) -> bool:
        """Reserve a unit of ``fu_class`` for this cycle if one is available."""
        return self.try_acquire_index(FU_INDEX[fu_class])

    def available(self, fu_class: FuClass) -> int:
        """Units of ``fu_class`` still free this cycle."""
        index = FU_INDEX[fu_class]
        return max(0, self._limits[index] - self._used[index])

    @property
    def issues_by_class(self) -> dict[FuClass, int]:
        """Issues recorded per class over the whole run (for reports)."""
        return {fu: self._issues[FU_INDEX[fu]] for fu in FU_ORDER}
