"""Set-associative caches and the two-level memory hierarchy of table 1.

The hierarchy is: 64KB 2-way L1 instruction cache (1-cycle hit), 64KB 4-way
L1 data cache (2-cycle hit) and a unified 512KB 8-way L2 (10-cycle hit,
50-cycle miss to memory).  Caches use true LRU within a set, which is cheap
at these associativities and deterministic for tests.

The scalar kernel's fetch and issue stages read the hierarchy through
:meth:`MemoryHierarchy.instruction_fetch_fast` and
:meth:`MemoryHierarchy.data_access_fast`, which return ``(latency,
l1_hit, l2_hit)``; the stages count accesses and misses into the run's
statistics themselves.  The native kernel keeps the same caches in C.
"""

from __future__ import annotations

from repro.uarch.config import CacheConfig, ProcessorConfig


class SetAssociativeCache:
    """One cache level with LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.num_sets = config.num_sets
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self._line_bytes = config.line_bytes
        self._assoc = config.assoc

    def access(self, address: int) -> bool:
        """Access ``address``; return True on a hit and update LRU state."""
        line = address // self._line_bytes
        entry_set = self._sets[line % self.num_sets]
        if line in entry_set:
            if entry_set[0] != line:
                entry_set.remove(line)
                entry_set.insert(0, line)
            return True
        entry_set.insert(0, line)
        if len(entry_set) > self._assoc:
            entry_set.pop()
        return False


class MemoryHierarchy:
    """L1 instruction, L1 data and unified L2 caches plus main memory."""

    def __init__(self, config: ProcessorConfig):
        self.l1i = SetAssociativeCache(config.l1i)
        self.l1d = SetAssociativeCache(config.l1d)
        self.l2 = SetAssociativeCache(config.l2)
        # Precomputed latency tiers for the tuple-returning accesses.
        self._l1i_hit = config.l1i.hit_latency
        self._l1i_l2 = config.l1i.hit_latency + config.l2.hit_latency
        self._l1i_mem = self._l1i_l2 + config.l2_miss_latency
        self._l1d_hit = config.l1d.hit_latency
        self._l1d_l2 = config.l1d.hit_latency + config.l2.hit_latency
        self._l1d_mem = self._l1d_l2 + config.l2_miss_latency

    def instruction_fetch_fast(self, address: int) -> tuple[int, bool, bool]:
        """Fetch the line containing ``address``: ``(latency, l1_hit, l2_hit)``."""
        if self.l1i.access(address):
            return (self._l1i_hit, True, True)
        if self.l2.access(address):
            return (self._l1i_l2, False, True)
        return (self._l1i_mem, False, False)

    def data_access_fast(self, address: int) -> tuple[int, bool, bool]:
        """Load/store access to ``address``: ``(latency, l1_hit, l2_hit)``."""
        if self.l1d.access(address):
            return (self._l1d_hit, True, True)
        if self.l2.access(address):
            return (self._l1d_l2, False, True)
        return (self._l1d_mem, False, False)
