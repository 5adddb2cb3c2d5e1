"""Slab-based allocator for the data region (§4.1).

DataEntries are random-access, so the memory pool is governed by a slab
allocator [Bonwick '94]: the arena is carved into fixed-size slabs, each
slab is dedicated to one size class, and empty slabs are repurposed to
different classes as value-size mixes drift over the backend's lifetime.

The allocator only sees the *populated* prefix of the arena; as the arena
grows (data-region reshaping), newly-populated bytes become carvable slab
space with no other bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..transport import Arena


class SlabInfo:
    """One slab: a contiguous run of equal-size blocks."""

    __slots__ = ("start", "block_size", "free_blocks", "allocated")

    def __init__(self, start: int, block_size: int, slab_bytes: int):
        self.start = start
        self.block_size = block_size
        count = slab_bytes // block_size
        self.free_blocks: List[int] = [start + i * block_size
                                       for i in range(count)]
        self.allocated: Set[int] = set()

    @property
    def empty(self) -> bool:
        return not self.allocated


class SlabAllocator:
    """Allocates blocks out of size-classed slabs carved from an arena."""

    def __init__(self, arena: Arena, slab_bytes: int = 64 * 1024,
                 min_block: int = 64, growth_factor: float = 2.0):
        if slab_bytes <= 0 or min_block <= 0:
            raise ValueError("slab_bytes and min_block must be positive")
        self.arena = arena
        self.slab_bytes = slab_bytes
        self._classes: List[int] = []
        size = min_block
        while size <= slab_bytes:
            self._classes.append(size)
            size = int(size * growth_factor)
        if self._classes[-1] != slab_bytes:
            self._classes.append(slab_bytes)
        self._carved = 0                      # bytes carved into slabs so far
        self._slabs: Dict[int, SlabInfo] = {}  # slab start -> info
        self._partial: Dict[int, Set[int]] = {c: set() for c in self._classes}
        self._empty_slabs: List[int] = []
        self._block_owner: Dict[int, int] = {}  # block offset -> slab start
        self.used_bytes = 0

    # -- size classes ------------------------------------------------------

    def class_for(self, nbytes: int) -> Optional[int]:
        for c in self._classes:
            if nbytes <= c:
                return c
        return None

    # -- allocation ----------------------------------------------------------

    def alloc(self, nbytes: int,
              exclude_slab: Optional[int] = None) -> Optional[int]:
        """Return a block offset for ``nbytes``, or None if out of memory.

        ``exclude_slab`` skips one slab (defragmentation must not move a
        block into the very slab it is vacating)."""
        cls = self.class_for(nbytes)
        if cls is None:
            return None
        slab = self._slab_with_free_block(cls, exclude_slab)
        if slab is None:
            return None
        offset = slab.free_blocks.pop()
        slab.allocated.add(offset)
        if not slab.free_blocks:
            self._partial[cls].discard(slab.start)
        self._block_owner[offset] = slab.start
        self.used_bytes += cls
        return offset

    def free(self, offset: int) -> None:
        slab_start = self._block_owner.pop(offset, None)
        if slab_start is None:
            raise ValueError(f"free of unallocated offset {offset}")
        slab = self._slabs[slab_start]
        slab.allocated.discard(offset)
        slab.free_blocks.append(offset)
        self.used_bytes -= slab.block_size
        if slab.empty:
            # Repurposable: return the whole slab to the free pool.
            self._partial[slab.block_size].discard(slab.start)
            del self._slabs[slab.start]
            self._empty_slabs.append(slab.start)
        else:
            self._partial[slab.block_size].add(slab.start)

    def block_size(self, offset: int) -> int:
        slab_start = self._block_owner.get(offset)
        if slab_start is None:
            raise ValueError(f"offset {offset} is not allocated")
        return self._slabs[slab_start].block_size

    def is_allocated(self, offset: int) -> bool:
        return offset in self._block_owner

    def can_satisfy(self, nbytes: int) -> bool:
        """True if an alloc of ``nbytes`` would succeed right now."""
        cls = self.class_for(nbytes)
        if cls is None:
            return False
        if self._partial[cls] or self._empty_slabs:
            return True
        return self._carved + self.slab_bytes <= self.arena.populated

    # -- internals ----------------------------------------------------------

    def _slab_with_free_block(self, cls: int,
                              exclude_slab: Optional[int] = None
                              ) -> Optional[SlabInfo]:
        # Iterating this set is seed-independent: slab starts are ints,
        # and an int hashes to itself under every PYTHONHASHSEED.
        for start in self._partial[cls]:
            if start != exclude_slab:
                return self._slabs[start]
        start = self._take_empty_slab()
        if start is None:
            return None
        slab = SlabInfo(start, cls, self.slab_bytes)
        self._slabs[start] = slab
        self._partial[cls].add(start)
        return slab

    def _take_empty_slab(self) -> Optional[int]:
        if self._empty_slabs:
            return self._empty_slabs.pop()
        if self._carved + self.slab_bytes <= self.arena.populated:
            start = self._carved
            self._carved += self.slab_bytes
            return start
        return None

    # -- defragmentation support -----------------------------------------------

    def slab_utilization(self, slab_start: int) -> float:
        slab = self._slabs[slab_start]
        total = self.slab_bytes // slab.block_size
        return len(slab.allocated) / total

    def sparse_slabs(self, threshold: float = 0.5):
        """Slab starts whose occupancy is below ``threshold`` — candidates
        for compaction so the whole slab can be repurposed."""
        return [start for start, slab in self._slabs.items()
                if slab.allocated and
                self.slab_utilization(start) < threshold]

    def blocks_in_slab(self, slab_start: int):
        return sorted(self._slabs[slab_start].allocated)

    @property
    def live_slab_count(self) -> int:
        return len(self._slabs)

    # -- accounting ---------------------------------------------------------

    @property
    def headroom_bytes(self) -> int:
        """Uncarved populated bytes plus empty-slab bytes."""
        return (self.arena.populated - self._carved +
                len(self._empty_slabs) * self.slab_bytes)

    def utilization_of_populated(self) -> float:
        if self.arena.populated == 0:
            return 0.0
        return self.used_bytes / self.arena.populated
