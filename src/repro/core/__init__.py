"""CliqueMap core: the hybrid RMA/RPC key-value caching system."""

from .backend import Backend, BackendConfig, BackendStats
from .cell import Cell, CellSpec, make_transport
from .checksum import CHECKSUM_BYTES, checksum_ok, kv_checksum
from .client import (BackendView, ClientConfig, ClientCostModel,
                     CliqueMapClient, GetResult, MutationResult, OpResult)
from .config import (CellConfig, ConfigStore, GetStrategy,
                     ReplicationMode)
from .data import (DataEntryView, DataRegion, encode_entry_parts, entry_size,
                   try_decode)
from .errors import CliqueMapError, ConfigCasError, GetStatus, SetStatus
from .eviction import (ArcPolicy, EvictionPolicy, LruPolicy, RandomPolicy,
                       make_policy)
from .federation import (FederatedClient, Federation, FederationSpec,
                         build_zone_cell)
from .hashing import (KEY_HASH_BYTES, Placement, default_key_hash,
                      key_hash_to_int)
from .parallelfed import (RemoteZoneProxy, ZoneShard, ZoneShardSpec,
                          ZoneWorkloadSpec, run_plain_federation,
                          shard_builders)
from .index import (ENTRY_BYTES, IndexRegion, ParsedBucket, ParsedIndexEntry,
                    bucket_size, make_scar_program, parse_bucket)
from .maintenance import (MaintenanceConfig, MaintenanceController,
                          MaintenanceStats)
from .quorum import (Ballot, QuorumDecision, QuorumOutcome, ReplicaVote,
                     VoteKind, evaluate)
from .repair import RepairConfig, RepairScanner, RepairStats
from .resize import ResizeConfig, ResizeController, ResizeStats
from .resilience import (BackendHealth, BackoffPolicy, HealthPolicy,
                         RetryBudget)
from .slab import SlabAllocator
from .tombstone import TombstoneCache
from .truetime import TrueTime
from .version import VERSION_BYTES, VersionFactory, VersionNumber

__all__ = [
    "Backend", "BackendConfig", "BackendStats",
    "Cell", "CellSpec", "make_transport",
    "CHECKSUM_BYTES", "checksum_ok", "kv_checksum",
    "BackendView", "ClientConfig", "ClientCostModel", "CliqueMapClient",
    "GetResult", "MutationResult", "OpResult",
    "CellConfig", "ConfigStore", "GetStrategy", "ReplicationMode",
    "DataEntryView", "DataRegion", "encode_entry_parts", "entry_size",
    "try_decode",
    "CliqueMapError", "ConfigCasError", "GetStatus", "SetStatus",
    "ArcPolicy", "EvictionPolicy", "LruPolicy", "RandomPolicy", "make_policy",
    "FederatedClient", "Federation", "FederationSpec", "build_zone_cell",
    "RemoteZoneProxy", "ZoneShard", "ZoneShardSpec", "ZoneWorkloadSpec",
    "run_plain_federation", "shard_builders",
    "KEY_HASH_BYTES", "Placement", "default_key_hash", "key_hash_to_int",
    "ENTRY_BYTES", "IndexRegion", "ParsedBucket", "ParsedIndexEntry",
    "bucket_size", "make_scar_program", "parse_bucket",
    "MaintenanceConfig", "MaintenanceController", "MaintenanceStats",
    "Ballot", "QuorumDecision", "QuorumOutcome", "ReplicaVote", "VoteKind",
    "evaluate",
    "RepairConfig", "RepairScanner", "RepairStats",
    "ResizeConfig", "ResizeController", "ResizeStats",
    "BackendHealth", "BackoffPolicy", "HealthPolicy", "RetryBudget",
    "SlabAllocator", "TombstoneCache", "TrueTime",
    "VERSION_BYTES", "VersionFactory", "VersionNumber",
]
