"""Unit tests for cell configuration and the external config store."""

import pytest

from repro.core.config import (CellConfig, ConfigStore, GetStrategy,
                               ReplicationMode)
from repro.core.errors import CliqueMapError, ConfigCasError
from repro.sim import Simulator


def make_config(name="cell"):
    return CellConfig(name=name, mode=ReplicationMode.R3_2, num_shards=3,
                      shard_tasks=["b0", "b1", "b2"], spares=["s0"])


def test_replication_mode_parameters():
    assert ReplicationMode.R1.replicas == 1
    assert ReplicationMode.R1.quorum == 1
    assert ReplicationMode.R2_IMMUTABLE.replicas == 2
    assert ReplicationMode.R2_IMMUTABLE.quorum == 1
    assert ReplicationMode.R3_2.replicas == 3
    assert ReplicationMode.R3_2.quorum == 2


def test_config_clone_is_deep():
    config = make_config()
    clone = config.clone()
    clone.shard_tasks[0] = "other"
    assert config.shard_tasks[0] == "b0"


def test_store_get_returns_snapshot():
    sim = Simulator()
    store = ConfigStore(sim)
    store.publish(make_config())

    def reader():
        config = yield from store.get("cell")
        return config

    config = sim.run(until=sim.process(reader()))
    assert config.shard_tasks == ["b0", "b1", "b2"]
    config.shard_tasks[0] = "mutated"
    assert store.peek("cell").shard_tasks[0] == "b0"


def test_store_get_costs_latency():
    sim = Simulator()
    store = ConfigStore(sim, read_latency=500e-6)
    store.publish(make_config())

    def reader():
        yield from store.get("cell")

    sim.run(until=sim.process(reader()))
    assert sim.now == pytest.approx(500e-6)
    assert store.reads == 1


def test_store_unknown_cell_raises():
    sim = Simulator()
    store = ConfigStore(sim)

    def reader():
        yield from store.get("missing")

    proc = sim.process(reader())
    proc.defused = True
    sim.run()
    assert isinstance(proc.value, KeyError)


def test_update_bumps_generation():
    sim = Simulator()
    store = ConfigStore(sim)
    store.publish(make_config())
    before = store.peek("cell").config_id

    def repoint(config):
        config.shard_tasks[1] = "s0"
        config.spare_roles["s0"] = 1

    updated = store.update("cell", repoint)
    assert updated.config_id == before + 1
    assert updated.shard_tasks[1] == "s0"
    assert store.peek("cell").spare_roles == {"s0": 1}


def test_update_cas_applies_on_matching_generation():
    sim = Simulator()
    store = ConfigStore(sim)
    store.publish(make_config())
    expected = store.peek("cell").config_id

    def repoint(config):
        config.shard_tasks[2] = "s0"

    updated = store.update("cell", repoint, expected_config_id=expected)
    assert updated.config_id == expected + 1
    assert updated.shard_tasks[2] == "s0"


def test_update_cas_mismatch_raises_without_applying():
    sim = Simulator()
    store = ConfigStore(sim)
    store.publish(make_config())
    stale = store.peek("cell").config_id
    store.update("cell", lambda config: None)   # someone else bumps first

    def repoint(config):
        config.shard_tasks[2] = "s0"

    with pytest.raises(ConfigCasError):
        store.update("cell", repoint, expected_config_id=stale)
    # The losing mutate never touched the stored config, and the
    # generation did not advance a second time.
    current = store.peek("cell")
    assert current.shard_tasks == ["b0", "b1", "b2"]
    assert current.config_id == stale + 1


def test_config_cas_error_is_a_cliquemap_error():
    assert issubclass(ConfigCasError, CliqueMapError)


def test_lookup_strategy_members():
    assert GetStrategy.TWO_R.value == "2xr"
    assert GetStrategy.SCAR.value == "scar"
    assert GetStrategy.RPC.value == "rpc"
