"""Tombstone cache: VersionNumbers for ERASEd keys (§5.2).

ERASE versions cannot live in the index region (that would spend
RMA-registered DRAM on deleted data), and need not be RMA-accessible —
only mutations consult them. So each backend keeps a fixed-size, fully
associative tombstone cache on its heap, plus a *summary* VersionNumber:
the largest version ever evicted from the cache. For a key absent from
the cache, the summary is a safe upper bound — reasoning becomes
coarse-grained (a fresh SET below the summary is rejected even if the key
was never erased) but never inconsistent.

:func:`arbitrate` is the one replica-side apply rule (§5.2): every SET,
multi-SET entry, CAS, ERASE and installed entry the backend handles, and
every delivery the R=3.2 model checker explores, is decided by it against
the floor this cache contributes to. It knows nothing of the simulator,
and its versions need only ``<=`` and ``!=`` — the model passes ints.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from .version import VersionNumber


def arbitrate(incoming, floor, expected=None) -> Tuple[bool, str]:
    """Decide one mutation at one replica: ``(applied, reason)``.

    ``floor`` is the highest version the replica knows for the key —
    stored value, overflow copy or erase floor, whichever is highest.
    ``expected`` is a CAS's condition (``None`` for SET / ERASE /
    install): a CAS applies only on the floor it names, so a CAS
    expecting "absent" fails after an ERASE. Anything not newer than the
    floor is superseded (an equal version is a redelivery).
    """
    if expected is not None and floor != expected:
        return False, "version-mismatch"
    if incoming <= floor:
        return False, "superseded"
    return True, "ok"


class TombstoneCache:
    """Bounded map of key-hash -> erase VersionNumber, with a summary."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, VersionNumber]" = OrderedDict()
        self.summary = VersionNumber.zero()
        self.evictions = 0

    def note_erase(self, key_hash: bytes, version: VersionNumber) -> None:
        """Record an erase, evicting the oldest tombstone if full."""
        existing = self._entries.get(key_hash)
        if existing is not None and existing >= version:
            return
        self._entries[key_hash] = version
        self._entries.move_to_end(key_hash)
        while len(self._entries) > self.capacity:
            _kh, evicted = self._entries.popitem(last=False)
            if evicted > self.summary:
                self.summary = evicted
            self.evictions += 1

    def erased_version(self, key_hash: bytes) -> Optional[VersionNumber]:
        """Exact tombstone version for the key, if still cached."""
        return self._entries.get(key_hash)

    def version_floor(self, key_hash: bytes) -> VersionNumber:
        """Lowest version a mutation of this key must exceed.

        Exact when the tombstone is cached; otherwise bounded above by the
        summary (coarse-grained but never inconsistent).
        """
        exact = self._entries.get(key_hash)
        if exact is not None:
            # The key may *also* have had a higher tombstone that was
            # evicted before this one was recorded; the summary bounds it.
            return max(exact, self.summary)
        return self.summary

    def forget(self, key_hash: bytes) -> None:
        """Drop a tombstone (its key was re-installed at a higher version)."""
        self._entries.pop(key_hash, None)

    def __len__(self) -> int:
        return len(self._entries)
