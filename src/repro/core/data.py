"""DataEntries and the data region (Fig 1).

A DataEntry is ``key_len | data_len | version | key | value | checksum``.
The checksum (over key, value, version, key hash) makes every entry
self-validating end-to-end: a client that RMA-reads an entry mid-mutation
sees a checksum mismatch and retries (§3).

Encoding exposes the entry in two parts — body and trailing checksum — so
the backend can write them as *separate steps in simulated time*. The gap
between the two writes is the real tear window; nothing is faked.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from ..transport import Arena, MemoryRegion
from .checksum import CHECKSUM_BYTES, kv_checksum
from .version import VersionNumber

DATA_HEADER = struct.Struct("<II16s")  # key_len, data_len, version
DATA_HEADER_BYTES = DATA_HEADER.size   # 24


def entry_size(key_len: int, value_len: int) -> int:
    return DATA_HEADER_BYTES + key_len + value_len + CHECKSUM_BYTES


def encode_entry_parts(key: bytes, value: bytes, version: VersionNumber,
                       key_hash: bytes) -> Tuple[bytes, bytes]:
    """Return ``(body, checksum)``; the full entry is their concatenation."""
    body = DATA_HEADER.pack(len(key), len(value), version.pack()) + key + value
    check = kv_checksum(key, value, version.pack(), key_hash)
    return body, check


@dataclass(frozen=True)
class DataEntryView:
    """A decoded DataEntry (client- or server-side)."""

    key: bytes
    value: bytes
    version: VersionNumber
    stored_checksum: bytes

    def checksum_ok(self, key_hash: bytes) -> bool:
        return kv_checksum(self.key, self.value, self.version.pack(),
                           key_hash) == self.stored_checksum


def try_decode(raw: bytes) -> Optional[DataEntryView]:
    """Decode raw bytes into a DataEntryView; None if structurally torn.

    Torn reads can corrupt the length fields themselves, so decoding must
    never trust them beyond the buffer it was handed.
    """
    if len(raw) < DATA_HEADER_BYTES + CHECKSUM_BYTES:
        return None
    key_len, value_len, version_raw = DATA_HEADER.unpack_from(raw, 0)
    end = DATA_HEADER_BYTES + key_len + value_len + CHECKSUM_BYTES
    if key_len > len(raw) or value_len > len(raw) or end > len(raw):
        return None
    key = raw[DATA_HEADER_BYTES:DATA_HEADER_BYTES + key_len]
    value = raw[DATA_HEADER_BYTES + key_len:
                DATA_HEADER_BYTES + key_len + value_len]
    checksum = raw[end - CHECKSUM_BYTES:end]
    return DataEntryView(key=key, value=value,
                         version=VersionNumber.unpack(version_raw),
                         stored_checksum=checksum)


class DataRegion:
    """Backend-side data pool: an arena, its allocator, and RMA windows.

    Reshaping (§4.1) keeps the pool virtually contiguous but only
    partially DRAM-backed. Growth creates a new, larger, overlapping
    window under a fresh region id; the old window stays readable until
    revoked, letting clients converge lazily.
    """

    def __init__(self, initial_bytes: int, virtual_limit: int,
                 slab_bytes: int = 64 * 1024):
        from .slab import SlabAllocator
        self.arena = Arena(initial_bytes, virtual_limit)
        self.allocator = SlabAllocator(self.arena, slab_bytes=slab_bytes)
        self.active_window = MemoryRegion(self.arena)
        self.old_windows = []

    @property
    def region_id(self) -> int:
        return self.active_window.region_id

    @property
    def populated_bytes(self) -> int:
        return self.arena.populated

    def write_at(self, offset: int, data: bytes) -> None:
        self.arena.write(offset, data)

    def read_at(self, offset: int, size: int) -> bytes:
        return self.arena.read(offset, size)

    def grow(self, new_size: int) -> MemoryRegion:
        """Populate more DRAM and open a new overlapping window."""
        self.arena.grow(new_size)
        self.old_windows.append(self.active_window)
        self.active_window = MemoryRegion(self.arena)
        return self.active_window

    def retire_oldest_window(self) -> Optional[MemoryRegion]:
        """Revoke the oldest superseded window (clients have converged)."""
        if not self.old_windows:
            return None
        window = self.old_windows.pop(0)
        window.revoke()
        return window
