"""Miss-path policy: the knobs for the read-through pipeline.

A :class:`MissPolicy` is the public configuration surface for
``cell.attach_sor(sor, policy)``. It is validated eagerly at
construction (like :class:`~repro.core.ClientConfig`) so a bad knob
fails at setup time with a :class:`~repro.core.CliqueMapError`, not
mid-operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import CliqueMapError


#: Write-behind sweep period and keys flushed per sweep.
FLUSH_INTERVAL = 10e-3
FLUSH_BATCH_MAX = 64
#: First backoff between leader-fetch (and SoR write) retries.
FETCH_BACKOFF = 1e-3
#: Bound on remembered-absent keys (oldest evicted first).
NEGATIVE_CAPACITY = 4096


@dataclass
class MissPolicy:
    """How cache misses flow to (and writes flow back to) the SoR.

    With a system of record attached, a cache MISS fetches the key from
    it and fills the cache with the result. The two headline knobs of
    the miss pipeline:

    * ``negative_ttl`` — remember "the SoR does not have this key" for
      this many simulated seconds, so repeated misses on absent keys
      don't hammer persistent media. ``0`` disables negative caching.
    * ``backfill_budget`` — token-bucket admission control for
      backfill/warming fetches (``ReadThroughCoordinator.warm``):
      capacity of the bucket; ``<= 0`` disables admission control.
      Foreground (client-op) fetches never spend from this bucket, so a
      cold-start storm cannot starve the serving path.

    Acknowledged cache mutations always ride write-behind: they are
    buffered in a bounded dirty buffer and flushed to the SoR
    asynchronously under a flush budget (``FLUSH_BATCH_MAX`` keys every
    ``FLUSH_INTERVAL``). When the buffer is full, writes fall back to
    synchronous write-through.
    """

    negative_ttl: float = 0.5
    backfill_budget: float = 64.0
    # Tokens per simulated second restored to the backfill bucket.
    backfill_fill_rate: float = 32.0
    # Single-flight request coalescing: one in-flight SoR fetch per key,
    # concurrent waiters park on it. Off only for ablation benchmarks.
    coalesce: bool = True
    # Write-behind dirty buffer: at most this many distinct dirty keys,
    # flushed oldest-first.
    dirty_buffer_max: int = 1024
    # Leader-fetch behavior against the SoR (deadline covers retries).
    fetch_deadline: float = 50e-3
    fetch_retries: int = 3

    def __post_init__(self) -> None:
        for name in ("negative_ttl", "backfill_fill_rate"):
            if getattr(self, name) < 0:
                raise CliqueMapError(
                    f"MissPolicy.{name} must be >= 0, "
                    f"got {getattr(self, name)!r}")
        if self.fetch_deadline <= 0:
            raise CliqueMapError(
                f"MissPolicy.fetch_deadline must be > 0, "
                f"got {self.fetch_deadline!r}")
        for name in ("dirty_buffer_max", "fetch_retries"):
            if getattr(self, name) < 1:
                raise CliqueMapError(
                    f"MissPolicy.{name} must be >= 1, "
                    f"got {getattr(self, name)!r}")
