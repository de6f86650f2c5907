"""The banked physical register file and its lowest-first free list.

Table 1: 112 integer and 112 floating-point physical registers organised as
14 banks of 8.  The paper's register-file power saving comes from a side
effect of issue-queue limiting: fewer instructions in flight means fewer
physical registers allocated simultaneously, and if allocation is clustered
(free registers handed out lowest-index-first) whole banks stay empty and
can be gated off.

Renaming is the standard merged-register-file scheme: each dispatched
instruction with a destination takes a free physical register; the
*previous* mapping of that architectural register is released when the
instruction commits.  The simulator is trace-driven (no wrong-path
state), so no checkpoint/rollback is required.  Both kernels rename in
their dispatch stage.  The scalar kernel's integer allocation and
release are inlined copies of :meth:`PhysicalRegisterFile.allocate` and
:meth:`PhysicalRegisterFile.release`, and every FP rename calls them;
FP tags sit above the integer ones (tag = FP register + integer file
size).

The free list is a preallocated integer **bitmask** rather than a heap of
boxed indices: bit *i* set means physical register *i* is free.  Lowest-
first allocation (the clustering the paper's static savings rely on) is
``mask & -mask``; release is a single ``or``.  Nothing is allocated per
rename, and ``free_count`` is maintained incrementally so the dispatch
stage's availability check is one attribute read.
"""

from __future__ import annotations


class OutOfPhysicalRegisters(Exception):
    """Raised when rename needs a register and the free list is empty."""


class PhysicalRegisterFile:
    """A banked physical register file with lowest-first allocation."""

    def __init__(self, num_physical: int, num_architectural: int, bank_size: int):
        if num_physical < num_architectural:
            raise ValueError("need at least one physical register per architectural register")
        self.num_physical = num_physical
        self.bank_size = bank_size
        self.num_banks = (num_physical + bank_size - 1) // bank_size

        # Architectural register i starts mapped to physical register i;
        # the free mask holds every physical register above them.
        self.rename_map = list(range(num_architectural))
        self._free_mask = ((1 << num_physical) - 1) ^ ((1 << num_architectural) - 1)
        self.free_count = num_physical - num_architectural
        self.allocated = num_architectural
        self.bank_counts = [0] * self.num_banks
        for phys in range(num_architectural):
            self.bank_counts[phys // bank_size] += 1
        self.active_banks = sum(1 for count in self.bank_counts if count > 0)

    def allocate(self, arch_reg: int) -> tuple[int, int]:
        """Allocate a new physical register for ``arch_reg``.

        Returns ``(new_physical, previous_physical)``; the previous mapping
        must be released when the renaming instruction commits.  The lowest
        free register is always chosen, clustering live registers into the
        low banks.
        """
        mask = self._free_mask
        if not mask:
            raise OutOfPhysicalRegisters(
                f"no free physical registers (all {self.num_physical} allocated)"
            )
        lowest = mask & -mask
        self._free_mask = mask ^ lowest
        new_phys = lowest.bit_length() - 1
        rename_map = self.rename_map
        previous = rename_map[arch_reg]
        rename_map[arch_reg] = new_phys
        self.allocated += 1
        self.free_count -= 1
        bank = new_phys // self.bank_size
        bank_counts = self.bank_counts
        if bank_counts[bank] == 0:
            self.active_banks += 1
        bank_counts[bank] += 1
        return new_phys, previous

    def release(self, phys_reg: int) -> None:
        """Return ``phys_reg`` to the free list (called at commit)."""
        self._free_mask |= 1 << phys_reg
        self.allocated -= 1
        self.free_count += 1
        bank = phys_reg // self.bank_size
        bank_counts = self.bank_counts
        bank_counts[bank] -= 1
        if bank_counts[bank] == 0:
            self.active_banks -= 1
