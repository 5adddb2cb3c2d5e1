"""CliqueMap-level errors, operation status codes and results.

Most failure handling in CliqueMap is *not* exception-shaped: the client
converts every per-attempt hazard (torn read, revoked region, config
mismatch, inquorate vote) into an internal retry and surfaces only a
terminal :class:`GetStatus`/:class:`SetStatus` plus a reason string —
§9's "clients become resilient to a variety of hazards across all layers
of the stack". The exception type below covers genuine API misuse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..rpc import RpcChannel
from ..telemetry import TraceContext
from .resilience import BackendHealth
from .version import VersionNumber

# CliqueMap-client CPU costs (distinct from transport/engine CPU).
_QUORUM_CPU = 0.12e-6            # evaluate votes


class CliqueMapError(Exception):
    """Base class for CliqueMap application errors (API misuse, bad
    configuration); operational failures surface as statuses instead."""


class ConfigCasError(CliqueMapError):
    """A compare-and-swap config update lost a race: the store's
    generation no longer matches the caller's expected ``config_id``.
    Controllers re-read the config and re-decide rather than clobber a
    concurrent controller's generation bump."""


class GetStatus(enum.Enum):
    """Outcome of a GET operation."""

    HIT = "hit"
    MISS = "miss"
    ERROR = "error"


class SetStatus(enum.Enum):
    """Outcome of a SET/ERASE/CAS operation."""

    APPLIED = "applied"          # quorum of replicas applied the mutation
    SUPERSEDED = "superseded"    # a newer version already present
    FAILED = "failed"            # could not reach enough replicas


@dataclass
class OpResult:
    """Common shape of every client operation outcome.

    :class:`GetResult` and :class:`MutationResult` share this surface:
    a ``status`` enum, the end-to-end simulated ``latency``, how many
    ``attempts`` the layered retry machinery used, an ``error`` reason
    string for terminal failures, and — when tracing is enabled — the
    operation's :class:`~repro.telemetry.TraceContext` in ``trace``.

    ``source`` says which tier produced a read's answer: ``"cache"``
    (the CliqueMap tier, the only source without an attached SoR),
    ``"sor"`` (resolved by the read-through miss pipeline), or
    ``"negative"`` (a remembered-absent entry short-circuited the SoR).
    """

    status: object
    latency: float = 0.0
    attempts: int = 1
    error: Optional[str] = None
    trace: Optional[TraceContext] = None
    source: str = "cache"

    @property
    def ok(self) -> bool:
        """True unless the operation terminally failed."""
        return self.status not in (GetStatus.ERROR, SetStatus.FAILED)


@dataclass
class GetResult(OpResult):
    """Outcome of one GET."""

    status: GetStatus = GetStatus.ERROR
    value: Optional[bytes] = None
    version: Optional[VersionNumber] = None

    @property
    def hit(self) -> bool:
        return self.status is GetStatus.HIT


@dataclass
class MutationResult(OpResult):
    """Outcome of a SET/ERASE/CAS."""

    status: SetStatus = SetStatus.FAILED
    version: Optional[VersionNumber] = None
    replicas_applied: int = 0
    stored_version: Optional[VersionNumber] = None


@dataclass
class BackendView:
    """Connection-time metadata for one backend task (§3).

    Liveness is delegated to a :class:`~repro.core.resilience.
    BackendHealth` scoreboard: ``health.available()`` means *connected
    and not quarantined*, so a flapping replica is excluded from the
    read cohort for a cooldown instead of toggling a binary flag on
    every error.
    """

    task: str
    host_name: str
    channel: RpcChannel
    health: BackendHealth
    config_id: int = 0
    index_region_id: int = 0
    num_buckets: int = 0
    ways: int = 0
    bucket_bytes: int = 0
    data_region_id: int = 0


class _AttemptRetry(Exception):
    """Internal: this attempt failed; retry after the indicated recovery."""

    def __init__(self, reason: str, refresh_config: bool = False,
                 stale_tasks: Tuple[str, ...] = ()):
        super().__init__(reason)
        self.reason = reason
        self.refresh_config = refresh_config
        self.stale_tasks = stale_tasks


def _parent_span(trace):
    """Normalize a ``trace=`` argument (TraceContext | Span | None) to
    the parent span it designates, or None for an unparented op."""
    if trace is None:
        return None
    if isinstance(trace, TraceContext):
        return trace.root
    return trace


# Read-through coordinator fetch status -> the GET's ``(status, source,
# error)``, for a singleton and for a key of a batch alike.
_SOR_OUTCOME = {
    "hit": (GetStatus.HIT, "sor", None),
    "miss": (GetStatus.MISS, "sor", None),
    "negative": (GetStatus.MISS, "negative", None),
    "shed": (GetStatus.MISS, "sor", "sor-backfill-shed"),
    "error": (GetStatus.MISS, "sor", "sor-fetch-failed"),
}
