"""The RMA-accessible index region: Buckets of IndexEntries (Fig 1).

The index region is a flat byte array of fixed-size Buckets. Each Bucket
holds a small header (magic, configuration id, overflow flag) plus a fixed
number of 64-byte IndexEntries. An IndexEntry is tagged with the 128-bit
KeyHash, carries the KV pair's VersionNumber (§5.1), and points (region
id, offset, size) at the DataEntry in the data region.

Three readers speak this byte format, through one way-scan
(:func:`scan_ways`): clients over the bucket bytes they fetched via RMA
(:func:`parse_bucket`), the SCAR program (installed into the software
NIC) over the bytes it snapshots server-side
(:func:`make_scar_program`), and the backend — the only writer — over
its own arena, in place (:class:`IndexRegion`). A way becomes an object
(:func:`parse_entry`) only when somebody wants its fields.

Entries reserve trailing bytes for future evolution — protocol changes
must be tolerable to deployed readers (§6), which self-validation makes
safe.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..transport import Arena, MemoryRegion
from .version import VersionNumber

BUCKET_MAGIC = 0xC11C3A90
BUCKET_HEADER = struct.Struct("<IIII")     # magic, config_id, flags, reserved
BUCKET_HEADER_BYTES = BUCKET_HEADER.size   # 16

ENTRY = struct.Struct("<16s16sQQII8x")     # key_hash, version, region, offset,
ENTRY_BYTES = ENTRY.size                   # size, flags (+8 reserved) = 64
# What the readers take from a way without materialising it: the flag
# word sits at entry offset 52.
_TAG = struct.Struct("<16s36xI")           # key_hash, flags
_STORED = struct.Struct("<16s16s20xI")     # key_hash, version, flags

FLAG_OVERFLOW = 0x1        # bucket flag: an entry spilled to the RPC path
ENTRY_FLAG_VALID = 0x1     # entry flag: slot is occupied


def bucket_size(ways: int) -> int:
    return BUCKET_HEADER_BYTES + ways * ENTRY_BYTES


@dataclass(frozen=True)
class ParsedIndexEntry:
    """One IndexEntry, materialised."""

    way: int
    key_hash: bytes
    version: VersionNumber
    region_id: int
    offset: int
    size: int
    valid: bool


def scan_ways(buf, base: int, ways: int,
              key_hash: Optional[bytes]) -> Optional[int]:
    """The one way-loop, over any buffer holding a Bucket at ``base``:
    the first valid way tagged ``key_hash`` — for ``key_hash=None``, the
    first free way — or ``None``. Tag and flag word are read in place:
    no slice, no entry object."""
    unpack_from = _TAG.unpack_from
    at = base + BUCKET_HEADER_BYTES
    for way in range(ways):
        tag, flags = unpack_from(buf, at)
        if flags & ENTRY_FLAG_VALID:
            if tag == key_hash:
                return way
        elif key_hash is None:
            return way
        at += ENTRY_BYTES
    return None


def parse_entry(buf, at: int, way: int) -> ParsedIndexEntry:
    """Materialise the IndexEntry at byte ``at`` of ``buf``."""
    kh, ver, region, offset, size, eflags = ENTRY.unpack_from(buf, at)
    return ParsedIndexEntry(
        way=way, key_hash=kh, version=VersionNumber.unpack(ver),
        region_id=region, offset=offset, size=size,
        valid=bool(eflags & ENTRY_FLAG_VALID))


class ParsedBucket:
    """A client-side view of one fetched Bucket.

    Entries decode lazily: the hot GET path calls :meth:`find`, which
    scans the raw bytes and materializes only the matching entry, so a
    lookup does not pay ``ways`` dataclass + version constructions just
    to discard all but one.
    """

    __slots__ = ("config_id", "overflow", "magic_ok", "_raw", "_ways",
                 "_entries")

    def __init__(self, config_id: int, overflow: bool, magic_ok: bool,
                 raw: bytes, ways: int):
        self.config_id = config_id
        self.overflow = overflow
        self.magic_ok = magic_ok
        self._raw = raw
        self._ways = ways
        self._entries: Optional[Tuple[ParsedIndexEntry, ...]] = None

    @property
    def entries(self) -> Tuple[ParsedIndexEntry, ...]:
        if self._entries is None:
            self._entries = tuple(
                parse_entry(self._raw,
                            BUCKET_HEADER_BYTES + way * ENTRY_BYTES, way)
                for way in range(self._ways))
        return self._entries

    def find(self, key_hash: bytes) -> Optional[ParsedIndexEntry]:
        way = scan_ways(self._raw, 0, self._ways, key_hash)
        if way is None:
            return None
        return parse_entry(self._raw,
                           BUCKET_HEADER_BYTES + way * ENTRY_BYTES, way)


def parse_bucket(data: bytes, ways: int) -> ParsedBucket:
    """Decode raw bucket bytes fetched via RMA."""
    if len(data) < bucket_size(ways):
        raise ValueError(
            f"bucket bytes too short: {len(data)} < {bucket_size(ways)}")
    magic, config_id, flags, _reserved = BUCKET_HEADER.unpack_from(data, 0)
    return ParsedBucket(config_id, bool(flags & FLAG_OVERFLOW),
                        magic == BUCKET_MAGIC, data, ways)


def make_scar_program(ways: int):
    """Build the NIC-resident scan for Scan-and-Read (§6.3).

    Returns ``program(bucket_bytes, key_hash) -> (region, offset, size)``
    or ``None`` on scan miss — a pure function over raw bytes, exactly the
    "small computation in the server-side NIC".
    """

    def program(bucket_bytes: bytes, key_hash: bytes):
        way = scan_ways(bucket_bytes, 0, ways, key_hash)
        if way is None:
            return None
        return ENTRY.unpack_from(
            bucket_bytes, BUCKET_HEADER_BYTES + way * ENTRY_BYTES)[2:5]

    return program


class IndexRegion:
    """The backend-side owner of the index bytes.

    All mutation happens here (inside RPC handlers); clients only ever see
    raw bytes via RMA. The owner reads its bytes where they lie (the
    arena's buffer); only :meth:`read_entry` makes a way an object.
    """

    def __init__(self, num_buckets: int, ways: int, config_id: int):
        if num_buckets < 1 or ways < 1:
            raise ValueError("num_buckets and ways must be positive")
        self.num_buckets = num_buckets
        self.ways = ways
        self.config_id = config_id
        self.bucket_bytes = bucket_size(ways)
        self.total_bytes = num_buckets * self.bucket_bytes
        self.arena = Arena(self.total_bytes, self.total_bytes)
        self.window = MemoryRegion(self.arena)
        self._buf = self.arena.buffer   # read in place; writes go via arena
        self._used_entries = 0
        # Every bucket starts as a stamped header over zeroed (free) ways.
        self.arena.write(0, num_buckets * (
            BUCKET_HEADER.pack(BUCKET_MAGIC, config_id, 0, 0) +
            bytes(ways * ENTRY_BYTES)))

    # -- geometry -------------------------------------------------------

    def bucket_for(self, key_hash: bytes) -> int:
        # Low 64 bits pick the bucket (high bits picked the shard).
        return int.from_bytes(key_hash[:8], "little") % self.num_buckets

    def bucket_offset(self, bucket: int) -> int:
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        return bucket * self.bucket_bytes

    def entry_offset(self, bucket: int, way: int) -> int:
        if not 0 <= way < self.ways:
            raise IndexError(f"way {way} out of range")
        return self.bucket_offset(bucket) + BUCKET_HEADER_BYTES + \
            way * ENTRY_BYTES

    @property
    def load_factor(self) -> float:
        return self._used_entries / (self.num_buckets * self.ways)

    # -- header ------------------------------------------------------------

    def _write_header(self, bucket: int, flags: int) -> None:
        self.arena.write(self.bucket_offset(bucket),
                         BUCKET_HEADER.pack(BUCKET_MAGIC, self.config_id,
                                            flags, 0))

    def read_flags(self, bucket: int) -> int:
        return BUCKET_HEADER.unpack_from(
            self._buf, self.bucket_offset(bucket))[2]

    def set_overflow(self, bucket: int, value: bool) -> None:
        flags = self.read_flags(bucket)
        flags = (flags | FLAG_OVERFLOW) if value else (flags & ~FLAG_OVERFLOW)
        self._write_header(bucket, flags)

    def set_config_id(self, config_id: int) -> None:
        """Stamp a new configuration id into every bucket header (§6.1)."""
        self.config_id = config_id
        for b in range(self.num_buckets):
            self._write_header(b, self.read_flags(b))

    # -- entries ----------------------------------------------------------

    def write_entry(self, bucket: int, way: int, key_hash: bytes,
                    version: VersionNumber, region_id: int, offset: int,
                    size: int) -> None:
        at = self.entry_offset(bucket, way)
        was_valid = _TAG.unpack_from(self._buf, at)[1] & ENTRY_FLAG_VALID
        self.arena.write(
            at, ENTRY.pack(key_hash, version.pack(), region_id, offset, size,
                           ENTRY_FLAG_VALID))
        if not was_valid:
            self._used_entries += 1

    def clear_entry(self, bucket: int, way: int) -> None:
        at = self.entry_offset(bucket, way)
        if _TAG.unpack_from(self._buf, at)[1] & ENTRY_FLAG_VALID:
            self._used_entries -= 1
        self.arena.write(at, bytes(ENTRY_BYTES))

    def read_entry(self, bucket: int, way: int) -> ParsedIndexEntry:
        return parse_entry(self._buf, self.entry_offset(bucket, way), way)

    def find_way(self, bucket: int, key_hash: bytes) -> Optional[int]:
        return scan_ways(self._buf, self.bucket_offset(bucket), self.ways,
                         key_hash)

    def find_free_way(self, bucket: int) -> Optional[int]:
        return scan_ways(self._buf, self.bucket_offset(bucket), self.ways,
                         None)

    def stored_versions(self) -> Iterator[Tuple[int, int, bytes, bytes]]:
        """Yield (bucket, way, key_hash, packed version) for every valid
        entry: the stored bytes, nothing materialised."""
        buf = self._buf
        unpack_from = _STORED.unpack_from
        at = 0
        for bucket in range(self.num_buckets):
            at += BUCKET_HEADER_BYTES
            for way in range(self.ways):
                key_hash, version, flags = unpack_from(buf, at)
                if flags & ENTRY_FLAG_VALID:
                    yield bucket, way, key_hash, version
                at += ENTRY_BYTES

    def entries(self) -> Iterator[Tuple[int, ParsedIndexEntry]]:
        """Yield (bucket, entry) for every valid entry."""
        for bucket, way, _key_hash, _version in self.stored_versions():
            yield bucket, self.read_entry(bucket, way)

    @property
    def used_entries(self) -> int:
        return self._used_entries
