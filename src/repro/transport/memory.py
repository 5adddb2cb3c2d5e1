"""RMA-accessible memory: arenas, windows, registration, revocation.

Regions hold *real bytes*: each :class:`Arena` is one private anonymous
mapping. An RMA read snapshots those bytes at one simulated instant, so
torn reads — an RMA read observing the intermediate state of a
concurrent multi-step server-side mutation — arise from genuine
interleavings, exactly the hazard CliqueMap's self-validating responses
exist to catch (§3, §5.3).

The data-region reshaping design of §4.1 is modeled faithfully:

* an :class:`Arena` reserves its whole *virtual* range from the OS up
  front, but only a populated prefix is addressable (and accounted as
  DRAM); a page costs the host memory once the model writes to it;
* growth creates a second, larger, *overlapping* :class:`MemoryRegion`
  window onto the same arena and advertises it under a new region id;
* old windows keep working until explicitly revoked, so clients converge
  to the new window over time, perhaps after a retry.

Registration cost (OS + NIC page-table work) is charged when windows are
created, which is why CliqueMap does that work off the critical path.
"""

from __future__ import annotations

import itertools
import mmap
import sys
from dataclasses import dataclass
from typing import Dict, Optional


class RmaError(Exception):
    """Base class for RMA transport failures."""

    retryable = True


class RegionRevokedError(RmaError):
    """The target region id is revoked or unknown at the endpoint."""

    def __init__(self, region_id: int):
        super().__init__(f"region {region_id} is revoked or unknown")
        self.region_id = region_id


class RmaOutOfBoundsError(RmaError):
    """An access fell outside the window's registered extent."""


class RemoteHostDownError(RmaError):
    """The remote host is crashed/unreachable; surfaced as an op timeout."""


_region_ids = itertools.count(1)

# An arena reserves address space, not memory: without MAP_NORESERVE a
# private writable mapping is charged against commit at full size, and
# under heuristic overcommit fork() refuses to copy a (merged) reservation
# larger than RAM + swap. Python 3.11's mmap module does not export the
# flag; 0x4000 is its Linux value.
_RESERVE_FLAGS = mmap.MAP_PRIVATE | getattr(
    mmap, "MAP_NORESERVE", 0x4000 if sys.platform.startswith("linux") else 0)


def next_region_id() -> int:
    return next(_region_ids)


@dataclass
class RegistrationCostModel:
    """Cost of registering memory for RMA (OS + NIC translation tables)."""

    base_seconds: float = 50e-6
    per_page_seconds: float = 0.25e-6
    page_bytes: int = 4096

    def registration_time(self, nbytes: int) -> float:
        pages = max(1, (nbytes + self.page_bytes - 1) // self.page_bytes)
        return self.base_seconds + pages * self.per_page_seconds


class ArenaReservationError(MemoryError):
    """The OS refused to reserve an arena's virtual range."""

    def __init__(self, virtual_limit: int, cause: BaseException):
        super().__init__(
            f"cannot reserve an arena of virtual_limit={virtual_limit} "
            f"bytes ({cause}); the address-space limit (RLIMIT_AS), strict "
            f"overcommit or vm.max_map_count is in the way: lower "
            f"BackendConfig.data_virtual_limit or raise the limit")
        self.virtual_limit = virtual_limit


class Arena:
    """A virtually-contiguous buffer, only partially populated by DRAM.

    ``virtual_limit`` bytes are reserved as one private anonymous mapping
    (copy-on-write, so forked or sharded workers can never share a
    page; ``MAP_NORESERVE``, so the reservation commits no memory); the
    first ``populated`` bytes are addressable and counted as DRAM used.
    Untouched pages cost the host nothing, so the bounds check on
    ``populated`` — not the length of the mapping — is what keeps an
    access inside the arena.
    """

    def __init__(self, initial_bytes: int, virtual_limit: int):
        if initial_bytes < 0 or initial_bytes > virtual_limit:
            raise ValueError("initial size must be within the virtual limit")
        self.virtual_limit = virtual_limit
        #: Bytes of DRAM currently backing the arena.
        self.populated = initial_bytes
        try:
            # A zero-length mapping is illegal; an empty arena maps a page.
            self._buf = mmap.mmap(-1, max(virtual_limit, 1),
                                  flags=_RESERVE_FLAGS,
                                  prot=mmap.PROT_READ | mmap.PROT_WRITE)
        except (OSError, OverflowError) as exc:
            raise ArenaReservationError(virtual_limit, exc) from exc

    @property
    def buffer(self) -> mmap.mmap:
        """The whole mapping, for its owner to read in place; the same
        object for the arena's lifetime. It is ``virtual_limit`` long and
        checks nothing: only ``[0, populated)`` is the arena."""
        return self._buf

    def grow(self, new_size: int) -> None:
        """Populate the arena out to ``new_size`` bytes: bookkeeping
        only, the pages above the old ``populated`` read as zeros."""
        if new_size < self.populated:
            raise ValueError("grow cannot shrink; build a new arena instead")
        if new_size > self.virtual_limit:
            raise ValueError(
                f"grow to {new_size} exceeds virtual limit {self.virtual_limit}")
        self.populated = new_size

    # Raw access used by windows; offsets are arena-absolute.

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0 or offset + size > self.populated:
            raise RmaOutOfBoundsError(
                f"read [{offset}, {offset + size}) beyond populated "
                f"{self.populated}")
        return self._buf[offset:offset + size]

    def write(self, offset: int, data: bytes) -> None:
        if offset < 0 or offset + len(data) > self.populated:
            raise RmaOutOfBoundsError(
                f"write [{offset}, {offset + len(data)}) beyond populated "
                f"{self.populated}")
        self._buf[offset:offset + len(data)] = data


class MemoryRegion:
    """A registered RMA window onto an arena.

    Multiple windows may overlap the same arena (reshaping); each has its
    own region id and revocation state.
    """

    def __init__(self, arena: Arena, limit: Optional[int] = None,
                 region_id: Optional[int] = None):
        self.arena = arena
        self.limit = arena.populated if limit is None else limit
        if self.limit > arena.virtual_limit:
            raise ValueError("window limit exceeds arena virtual limit")
        self.region_id = next_region_id() if region_id is None else region_id
        self.revoked = False

    def read(self, offset: int, size: int) -> bytes:
        """Snapshot ``size`` bytes at this simulated instant."""
        if self.revoked:
            raise RegionRevokedError(self.region_id)
        if offset < 0 or offset + size > self.limit:
            raise RmaOutOfBoundsError(
                f"read [{offset}, {offset + size}) beyond window {self.limit}")
        return self.arena.read(offset, size)

    def write(self, offset: int, data: bytes) -> None:
        """Server-local write (backends mutate their own memory directly)."""
        if self.revoked:
            raise RegionRevokedError(self.region_id)
        if offset < 0 or offset + len(data) > self.limit:
            raise RmaOutOfBoundsError(
                f"write [{offset}, {offset + len(data)}) beyond window "
                f"{self.limit}")
        self.arena.write(offset, data)

    def revoke(self) -> None:
        self.revoked = True


class RmaEndpoint:
    """Server-side RMA attachment: the windows a host exposes.

    The optional ``scar_program`` is the small computation CliqueMap
    installs into the software NIC for Scan-and-Read (§6.3); it is a pure
    function over raw bucket bytes, mirroring a NIC-resident program.
    """

    def __init__(self, host):
        self.host = host
        self._windows: Dict[int, MemoryRegion] = {}
        self.scar_program = None

    def expose(self, window: MemoryRegion) -> MemoryRegion:
        self._windows[window.region_id] = window
        return window

    def revoke(self, window: MemoryRegion) -> None:
        window.revoke()
        self._windows.pop(window.region_id, None)

    def resolve(self, region_id: int) -> MemoryRegion:
        window = self._windows.get(region_id)
        if window is None or window.revoked:
            raise RegionRevokedError(region_id)
        return window

    def fits(self, region_id: int, offset: int, size: int) -> bool:
        """False only when the region resolves and its registered extent
        cannot hold ``[offset, offset + size)``: what a NIC rejects while
        translating a descriptor, before it prices any payload work. (A
        revoked or unknown region is found out at the snapshot.)"""
        window = self._windows.get(region_id)
        return window is None or window.revoked or \
            0 <= offset <= window.limit - size

    def install_scar_program(self, program) -> None:
        """``program(bucket_bytes, key_hash) -> (region_id, offset, size) | None``."""
        self.scar_program = program

    @property
    def window_count(self) -> int:
        return len(self._windows)
