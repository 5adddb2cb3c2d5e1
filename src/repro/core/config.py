"""Cell configuration and the external high-availability config store.

Clients learn the cell topology — which backend task serves each shard,
the replication mode, the configuration generation — from an external HA
storage system (Chubby/Spanner in the paper, §6.1). When a client's
validation detects a configuration-id mismatch in a fetched bucket, it
refreshes from this store and discovers all migrations in flight and the
(temporary) roles of any warm spares.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..sim import Simulator
from .errors import CliqueMapError, ConfigCasError


class ReplicationMode(enum.Enum):
    """Deployment replication modes (§5, §6.4)."""

    R1 = "r1"                    # single copy
    R2_IMMUTABLE = "r2imm"       # two copies, immutable corpus
    R3_2 = "r3.2"                # three copies, quorum of two

    @property
    def replicas(self) -> int:
        return {ReplicationMode.R1: 1,
                ReplicationMode.R2_IMMUTABLE: 2,
                ReplicationMode.R3_2: 3}[self]

    @property
    def quorum(self) -> int:
        return {ReplicationMode.R1: 1,
                ReplicationMode.R2_IMMUTABLE: 1,
                ReplicationMode.R3_2: 2}[self]


class GetStrategy(enum.Enum):
    """How GETs are performed (§3, §6.3).

    Part of the public API: :func:`repro.core.Cell.make_client` and
    :class:`CliqueMapClient` accept either a member or its string value
    (``"2xr"``, ``"scar"``, ``"msg"``, ``"rpc"``) and validate it via
    :meth:`coerce`.
    """

    TWO_R = "2xr"     # two RMA reads in sequence
    SCAR = "scar"     # single round trip via the software NIC
    MSG = "msg"       # two-sided messaging through the software NIC (Fig 7)
    RPC = "rpc"       # two-sided lookup over the full RPC stack (WAN)

    @classmethod
    def coerce(cls, value) -> "GetStrategy":
        """Normalize a strategy given as an enum member or string value.

        Raises :class:`~repro.core.errors.CliqueMapError` for anything
        else, so a typo'd strategy name fails at client construction
        rather than deep inside the GET path.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        valid = ", ".join(repr(m.value) for m in cls)
        raise CliqueMapError(
            f"unknown GET strategy {value!r}; expected one of {valid} "
            f"or a GetStrategy member")



@dataclass
class CellConfig:
    """A snapshot of cell topology at one configuration generation."""

    name: str
    mode: ReplicationMode
    num_shards: int
    config_id: int = 1
    # shard index -> backend task name currently serving it.
    shard_tasks: List[str] = field(default_factory=list)
    # Idle warm-spare task names.
    spares: List[str] = field(default_factory=list)
    # task name -> shard it is temporarily covering (migrations in flight).
    spare_roles: Dict[str, int] = field(default_factory=dict)
    # --- Online resize (elastic cells) ---------------------------------
    # While a resize is in flight the authoritative layout above stays
    # frozen (reads keep quorum on the old cohort); these fields publish
    # the target so clients dual-write and controllers coordinate.
    resize_num_shards: int = 0                 # 0 = no resize in flight
    # Target-layout shard index -> task that will serve it after cutover.
    migrating_to: Dict[int, str] = field(default_factory=dict)
    # Tasks leaving the cell at cutover (shrink); drained afterwards.
    draining: List[str] = field(default_factory=list)

    @property
    def resize_active(self) -> bool:
        return self.resize_num_shards > 0

    def task_for_shard(self, shard: int) -> str:
        if shard < len(self.shard_tasks):
            return self.shard_tasks[shard]
        # A joining shard index (resize in flight): resolve through the
        # dual-assignment so repair/backfill machinery can reach it.
        if self.resize_active and shard in self.migrating_to:
            return self.migrating_to[shard]
        return self.shard_tasks[shard]  # IndexError: genuinely unknown

    def serving_tasks(self) -> List[str]:
        """Every task addressable this generation: the authoritative
        layout plus (mid-resize) the target cohort, de-duplicated."""
        tasks = list(self.shard_tasks)
        seen = set(tasks)
        for shard in sorted(self.migrating_to):
            task = self.migrating_to[shard]
            if task not in seen:
                seen.add(task)
                tasks.append(task)
        return tasks

    def clone(self) -> "CellConfig":
        return copy.deepcopy(self)


class ConfigStore:
    """The external HA store clients refresh configuration from."""

    def __init__(self, sim: Simulator, read_latency: float = 300e-6):
        self.sim = sim
        self.read_latency = read_latency
        self._cells: Dict[str, CellConfig] = {}
        self.reads = 0

    def publish(self, config: CellConfig) -> None:
        """Install or replace a cell's configuration (bumps nothing)."""
        self._cells[config.name] = config.clone()

    def update(self, name: str, mutate,
               expected_config_id: Optional[int] = None) -> CellConfig:
        """Apply ``mutate(config)`` and bump the configuration generation.

        With ``expected_config_id`` the update is a compare-and-swap:
        it applies only if the store's current generation matches, and
        raises :class:`~repro.core.errors.ConfigCasError` otherwise.
        Concurrent controllers (resize + maintenance) use this so one
        cannot silently clobber the other's generation bump.
        """
        config = self._cells[name]
        if expected_config_id is not None and \
                config.config_id != expected_config_id:
            raise ConfigCasError(
                f"config CAS failed for cell {name!r}: expected generation "
                f"{expected_config_id}, store has {config.config_id}")
        mutate(config)
        config.config_id += 1
        return config.clone()

    def get(self, name: str) -> Generator:
        """Read a configuration snapshot (a generator; costs latency)."""
        yield self.sim.delay(self.read_latency)
        self.reads += 1
        config = self._cells.get(name)
        if config is None:
            raise KeyError(f"no such cell {name!r}")
        return config.clone()

    def peek(self, name: str) -> CellConfig:
        """Zero-cost read for assertions and controllers."""
        return self._cells[name].clone()
