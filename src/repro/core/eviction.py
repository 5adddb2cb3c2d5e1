"""Cache eviction policies (§4.2).

Backends have no direct record of GET accesses (GETs are one-sided RMAs),
so clients report touches via batched background RPCs and backends ingest
those records to drive configurable recency-based policies: LRU, ARC
[Megiddo & Modha '03], and random as a baseline.

A policy orders *eviction victims*; the backend walks that order when a
mutation hits a capacity conflict (data pool full) or an associativity
conflict (bucket full).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

from ..sim import RandomStream


class EvictionPolicy:
    """Interface: track residency/access, yield victims in eviction order."""

    name = "base"

    def record_insert(self, key_hash: bytes) -> None:
        raise NotImplementedError

    def record_access(self, key_hash: bytes) -> None:
        raise NotImplementedError

    def record_remove(self, key_hash: bytes) -> None:
        raise NotImplementedError

    def victims(self) -> Iterator[bytes]:
        """Resident keys, best-victim first. Must tolerate removals between
        yields (the backend evicts as it walks)."""
        raise NotImplementedError

    def __contains__(self, key_hash: bytes) -> bool:
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    """Least-recently-used over client-reported touches."""

    name = "lru"

    def __init__(self):
        self._order: "OrderedDict[bytes, None]" = OrderedDict()

    def record_insert(self, key_hash: bytes) -> None:
        self._order[key_hash] = None
        self._order.move_to_end(key_hash)

    def record_access(self, key_hash: bytes) -> None:
        if key_hash in self._order:
            self._order.move_to_end(key_hash)

    def record_remove(self, key_hash: bytes) -> None:
        self._order.pop(key_hash, None)

    def victims(self) -> Iterator[bytes]:
        while self._order:
            # Oldest first; re-check each yield since the backend mutates us.
            key_hash = next(iter(self._order))
            yield key_hash
            if key_hash in self._order:
                # Not evicted (wrong size class); skip it this walk.
                self._order.move_to_end(key_hash)

    def __contains__(self, key_hash: bytes) -> bool:
        return key_hash in self._order

    def __len__(self) -> int:
        return len(self._order)


class RandomPolicy(EvictionPolicy):
    """Uniform-random victims; the no-information baseline."""

    name = "random"

    def __init__(self):
        self._stream = RandomStream(0, "evict-random")
        self._resident = {}

    def record_insert(self, key_hash: bytes) -> None:
        self._resident[key_hash] = None

    def record_access(self, key_hash: bytes) -> None:
        pass

    def record_remove(self, key_hash: bytes) -> None:
        self._resident.pop(key_hash, None)

    def victims(self) -> Iterator[bytes]:
        while self._resident:
            keys = list(self._resident)
            self._stream.shuffle(keys)
            progressed = False
            for key_hash in keys:
                if key_hash in self._resident:
                    yield key_hash
                    progressed = True
            if not progressed:
                return

    def __contains__(self, key_hash: bytes) -> bool:
        return key_hash in self._resident

    def __len__(self) -> int:
        return len(self._resident)


class ArcPolicy(EvictionPolicy):
    """Adaptive Replacement Cache over key hashes.

    T1 holds keys seen once recently, T2 keys seen at least twice; B1/B2
    are ghost lists of recently-evicted keys that steer the adaptation
    target ``p`` between recency and frequency.
    """

    name = "arc"

    def __init__(self, capacity: int = 10000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.p = 0.0
        self.t1: "OrderedDict[bytes, None]" = OrderedDict()
        self.t2: "OrderedDict[bytes, None]" = OrderedDict()
        self.b1: "OrderedDict[bytes, None]" = OrderedDict()
        self.b2: "OrderedDict[bytes, None]" = OrderedDict()

    def record_insert(self, key_hash: bytes) -> None:
        if key_hash in self.t1 or key_hash in self.t2:
            self.record_access(key_hash)
            return
        if key_hash in self.b1:
            # Recency ghost hit: grow p toward recency.
            self.p = min(self.capacity,
                         self.p + max(1.0, len(self.b2) / max(1, len(self.b1))))
            del self.b1[key_hash]
            self.t2[key_hash] = None
            self.t2.move_to_end(key_hash)
        elif key_hash in self.b2:
            self.p = max(0.0,
                         self.p - max(1.0, len(self.b1) / max(1, len(self.b2))))
            del self.b2[key_hash]
            self.t2[key_hash] = None
            self.t2.move_to_end(key_hash)
        else:
            self.t1[key_hash] = None
            self.t1.move_to_end(key_hash)
        self._trim_ghosts()

    def record_access(self, key_hash: bytes) -> None:
        if key_hash in self.t1:
            del self.t1[key_hash]
            self.t2[key_hash] = None
            self.t2.move_to_end(key_hash)
        elif key_hash in self.t2:
            self.t2.move_to_end(key_hash)

    def record_remove(self, key_hash: bytes) -> None:
        if key_hash in self.t1:
            del self.t1[key_hash]
            self.b1[key_hash] = None
            self.b1.move_to_end(key_hash)
        elif key_hash in self.t2:
            del self.t2[key_hash]
            self.b2[key_hash] = None
            self.b2.move_to_end(key_hash)
        self._trim_ghosts()

    def victims(self) -> Iterator[bytes]:
        while self.t1 or self.t2:
            prefer_t1 = len(self.t1) >= max(1.0, self.p)
            source = self.t1 if (prefer_t1 and self.t1) or not self.t2 \
                else self.t2
            key_hash = next(iter(source))
            yield key_hash
            if key_hash in source:
                source.move_to_end(key_hash)

    def _trim_ghosts(self) -> None:
        while len(self.b1) > self.capacity:
            self.b1.popitem(last=False)
        while len(self.b2) > self.capacity:
            self.b2.popitem(last=False)

    def __contains__(self, key_hash: bytes) -> bool:
        return key_hash in self.t1 or key_hash in self.t2

    def __len__(self) -> int:
        return len(self.t1) + len(self.t2)


def make_policy(name: str) -> EvictionPolicy:
    """Factory keyed by policy name: 'lru', 'arc', or 'random'."""
    if name == "lru":
        return LruPolicy()
    if name == "arc":
        return ArcPolicy()
    if name == "random":
        return RandomPolicy()
    raise ValueError(f"unknown eviction policy {name!r}")
