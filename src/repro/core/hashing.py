"""Key hashing and consistent placement.

Every key maps to a 128-bit KeyHash which uniquely identifies (a) the
logical shard (and hence the replica cohort) and (b) the bucket within a
backend's index region (§3). Hash functions are customizable — a minor
feature the paper added for disaggregation use cases (§6.5).
"""

from __future__ import annotations

import hashlib
from typing import Callable, List

KEY_HASH_BYTES = 16

HashFunction = Callable[[bytes], bytes]


def default_key_hash(key: bytes) -> bytes:
    """128-bit keyed blake2b of the key."""
    return hashlib.blake2b(key, digest_size=KEY_HASH_BYTES).digest()


def key_hash_to_int(key_hash: bytes) -> int:
    return int.from_bytes(key_hash, "little")


def primary_for(key_hash: bytes, num_shards: int) -> int:
    """Logical primary shard of a KeyHash under an arbitrary modulus.

    The bucket selector uses the low bits; shard selection uses the
    *high* 64 bits so the two are independent. Exposed module-level so
    resize backfill can evaluate ownership under the *target* layout
    while backends still carry the old placement.
    """
    return int.from_bytes(key_hash[8:], "little") % num_shards


class Placement:
    """Maps KeyHashes to logical shards and replica cohorts.

    For each key the *logical primary* shard is ``hash mod num_shards``;
    with replication R copies live on shards ``i, i+1, .., i+R-1 (mod N)``
    (§5.1). Shards map to physical backend names through the cell
    configuration, which maintenance may repoint at warm spares.
    """

    def __init__(self, num_shards: int, replication: int = 3,
                 hash_function: HashFunction = default_key_hash):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if replication < 1 or replication > num_shards:
            raise ValueError("replication must be in [1, num_shards]")
        self.num_shards = num_shards
        self.replication = replication
        self.hash_function = hash_function

    def key_hash(self, key: bytes) -> bytes:
        return self.hash_function(key)

    def primary_shard(self, key_hash: bytes) -> int:
        return primary_for(key_hash, self.num_shards)

    def shards_for(self, key_hash: bytes) -> List[int]:
        """All shards holding copies of this key, primary first."""
        primary = self.primary_shard(key_hash)
        return [(primary + i) % self.num_shards
                for i in range(self.replication)]

    def cohort_of(self, shard: int) -> List[int]:
        """Shards whose keys this shard also stores (for repair scans).

        Shard ``s`` holds replicas for primaries ``s, s-1, .., s-R+1``; its
        cohort is every other shard holding any of those key ranges.
        """
        members = set()
        for primary in self.primaries_held_by(shard):
            members.update(self.shards_for_primary(primary))
        members.discard(shard)
        return sorted(members)

    def shards_for_primary(self, primary: int) -> List[int]:
        return [(primary + i) % self.num_shards
                for i in range(self.replication)]

    def primaries_held_by(self, shard: int) -> List[int]:
        """Primaries whose keys ``shard`` stores, its own first — the
        inverse of :meth:`shards_for_primary`."""
        return [(shard - back) % self.num_shards
                for back in range(self.replication)]
