"""VersionNumbers: globally unique, per-client monotone mutation versions.

A VersionNumber is the tuple {TrueTime, ClientId, SequenceNumber} (§5.2).
TrueTime occupies the uppermost bits, so a client retrying a mutation
eventually nominates the highest version in the system — the property that
guarantees per-client forward progress. Backends apply a mutation only
when its proposed version exceeds the stored one, so all replicas converge
on the same final order with no coordination.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .truetime import TrueTime

VERSION_BYTES = 16
_PACK = struct.Struct("<QII")  # truetime micros, client id, sequence


@dataclass(frozen=True, order=True)
class VersionNumber:
    """A totally-ordered mutation version: the order is the field order."""

    truetime_micros: int
    client_id: int
    sequence: int

    def pack(self) -> bytes:
        return _PACK.pack(self.truetime_micros, self.client_id, self.sequence)

    @classmethod
    def unpack(cls, data: bytes) -> "VersionNumber":
        tt, cid, seq = _PACK.unpack(data)
        return cls(tt, cid, seq)

    @classmethod
    def zero(cls) -> "VersionNumber":
        return cls(0, 0, 0)

    def is_zero(self) -> bool:
        return self == VersionNumber(0, 0, 0)

    def __repr__(self) -> str:
        return f"v({self.truetime_micros},{self.client_id},{self.sequence})"


class VersionFactory:
    """Nominates fresh VersionNumbers for one client (or repairing backend)."""

    def __init__(self, client_id: int, truetime: TrueTime):
        self.client_id = client_id
        self.truetime = truetime
        self._sequence = 0

    def next(self) -> VersionNumber:
        self._sequence += 1
        return VersionNumber(self.truetime.now_micros(), self.client_id,
                             self._sequence)
