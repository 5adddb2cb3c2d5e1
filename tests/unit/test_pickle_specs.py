"""Pickle-safety audit of every public config dataclass.

Sharded parallel simulation sends specs into worker processes over
pipes (repro.sim.parallel), so every config object a shard build might
reference must survive ``pickle`` round-trips — including nested
defaults, enums, and tuples. Anything that grows an unpicklable field
(an open file, a Simulator reference, a lambda default) breaks parallel
runs in confusing ways; this test makes the breakage a one-line diff.
"""

import pickle

import pytest

from repro.core import (BackendConfig, CellConfig, CellSpec, ClientConfig,
                        MaintenanceConfig, RepairConfig, ReplicationMode,
                        ResizeConfig, ZoneShardSpec, ZoneWorkloadSpec)
from repro.faults import FaultEvent, FaultPlan, SoakConfig
from repro.net import FabricConfig, HostConfig, LinkFault
from repro.observe import ObserveConfig
from repro.storage import MissPolicy, ProvisionedThroughput
from repro.workloads.population import PopulationConfig


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


CONFIG_OBJECTS = [
    # Defaults: the common path every worker build exercises.
    CellSpec(),
    ClientConfig(),
    BackendConfig(),
    RepairConfig(),
    MaintenanceConfig(),
    ResizeConfig(),
    FabricConfig(),
    HostConfig(),
    LinkFault(),
    MissPolicy(),
    ProvisionedThroughput(),
    ObserveConfig(),
    SoakConfig(),
    ZoneWorkloadSpec(),
    # Non-default values: catches fields that only break when set.
    CellSpec(name="pickled", mode=ReplicationMode.R2_IMMUTABLE, num_shards=9,
             num_spares=2, transport="1rma",
             writer_principals=["app-a", "app-b"], seed=99,
             tracing=False),
    CellConfig(name="cfg", mode=ReplicationMode.R3_2, num_shards=3,
               config_id=7, shard_tasks=["backend-0", "backend-1",
                                         "backend-2"],
               spares=["spare-0"]),
    LinkFault(loss_probability=0.1, corrupt_probability=0.05,
              latency_multiplier=3.0),
    FaultEvent(at=1.5, kind="partition",
               args={"a": "backend-0", "b": "backend-1"}, duration=0.5),
    PopulationConfig(num_clients=1000, rate_per_client=25.0,
                     duration=2.0, op_sample_rate=0.5),
    ZoneWorkloadSpec(clients=8, population_clients=500,
                     population_rate=40.0, seed=7),
    ZoneShardSpec(zone="dc-b", zones=("dc-a", "dc-b"),
                  cell_spec=CellSpec(num_shards=2),
                  workload=ZoneWorkloadSpec(clients=2), duration=0.25),
]


@pytest.mark.parametrize("obj", CONFIG_OBJECTS,
                         ids=lambda o: type(o).__name__)
def test_config_roundtrips_through_pickle(obj):
    restored = roundtrip(obj)
    assert restored == obj
    assert type(restored) is type(obj)


def test_nested_spec_roundtrip_is_deep():
    """Nested configs must be reconstructed, not shared references."""
    spec = ZoneShardSpec(zone="dc-a", zones=("dc-a", "dc-b"))
    restored = roundtrip(spec)
    assert restored.cell_spec == spec.cell_spec
    assert restored.cell_spec is not spec.cell_spec
    assert restored.cell_spec.backend_config is not \
        spec.cell_spec.backend_config


def test_fault_plan_roundtrip():
    """FaultPlan is a plain wrapper class: compare its event list."""
    plan = FaultPlan().add(0.1, "crash", task="backend-0").add(0.4, "heal")
    restored = roundtrip(plan)
    assert restored.events == plan.events


def test_zone_shard_spec_roundtrip_builds_identically():
    """The real worker path: a pickled spec must build a shard whose
    run is indistinguishable from one built from the original."""
    from repro.core import ZoneShard
    spec = ZoneShardSpec(zone="dc-a", zones=("dc-a",),
                         cell_spec=CellSpec(num_shards=3),
                         workload=ZoneWorkloadSpec(clients=1,
                                                   shared_keys=8,
                                                   private_keys=2),
                         duration=0.05)
    shards = []
    for s in (spec, roundtrip(spec)):
        shard = ZoneShard(s)
        shard.index = 0
        shard.build()
        shard.sim.run_until(shard.sim.now)
        shard.start()
        shard.sim.run_until(shard.sim.now + s.duration)
        shards.append(shard.digest())
    assert shards[0] == shards[1]


def test_enum_fields_survive_by_identity():
    restored = roundtrip(CellSpec(mode=ReplicationMode.R2_IMMUTABLE))
    assert restored.mode is ReplicationMode.R2_IMMUTABLE
