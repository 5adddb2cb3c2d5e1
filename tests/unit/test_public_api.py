"""Public-API stability: the documented surface exists and is importable."""

import inspect

import pytest


def test_top_level_exports():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


def test_core_exports():
    from repro import core
    for name in core.__all__:
        assert hasattr(core, name), name


@pytest.mark.parametrize("module_name", [
    "repro.sim", "repro.net", "repro.rpc", "repro.transport",
    "repro.shims", "repro.workloads", "repro.analysis", "repro.model",
    "repro.storage", "repro.baselines", "repro.telemetry",
])
def test_subpackage_all_lists_are_accurate(module_name):
    module = __import__(module_name, fromlist=["__all__"])
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name}"


def test_quickstart_snippet_from_readme():
    """The README's quickstart must work verbatim."""
    from repro import Cell, CellSpec, ReplicationMode

    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6,
                         transport="pony"))
    client = cell.connect_client()
    sim = cell.sim

    def app():
        yield from client.set(b"k", b"v")
        result = yield from client.get(b"k")
        assert result.hit and result.value == b"v"

    sim.run(until=sim.process(app()))


def test_every_public_class_has_a_docstring():
    import repro.core as core
    import repro.sim as sim
    import repro.transport as transport
    missing = []
    for module in (core, sim, transport):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) and not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert missing == []


def test_results_share_the_op_result_shape():
    """GetResult and MutationResult are both OpResults with the common
    status/latency/attempts/error/trace fields."""
    from repro.core import GetResult, GetStatus, MutationResult, OpResult

    assert issubclass(GetResult, OpResult)
    assert issubclass(MutationResult, OpResult)
    for cls in (GetResult, MutationResult):
        result = cls()
        for field_name in ("status", "latency", "attempts", "error",
                           "trace"):
            assert hasattr(result, field_name), (cls, field_name)
    hit = GetResult(status=GetStatus.HIT, value=b"v", latency=1e-6)
    assert hit.ok and hit.hit
    miss = GetResult(status=GetStatus.MISS)
    assert miss.ok and not miss.hit
    err = GetResult(status=GetStatus.ERROR, error="deadline")
    assert not err.ok


def test_get_strategy_coercion():
    from repro.core import CliqueMapError, GetStrategy

    assert GetStrategy.coerce("scar") is GetStrategy.SCAR
    assert GetStrategy.coerce("2XR") is GetStrategy.TWO_R
    assert GetStrategy.coerce(GetStrategy.MSG) is GetStrategy.MSG
    with pytest.raises(CliqueMapError):
        GetStrategy.coerce("quantum")


def test_make_client_rejects_unknown_strategy():
    from repro.core import Cell, CellSpec, CliqueMapError, ReplicationMode

    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2,
                         transport="pony"))
    with pytest.raises(CliqueMapError):
        cell.make_client(strategy="quantum")
    client = cell.make_client(strategy="rpc")  # strings are accepted
    from repro.core import GetStrategy
    assert client.strategy is GetStrategy.RPC


def test_client_and_cell_are_context_managers():
    from repro.core import Cell, CellSpec, ReplicationMode

    with Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2,
                       transport="pony")) as cell:
        with cell.connect_client() as client:
            def app():
                yield from client.set(b"k", b"v")
                result = yield from client.get(b"k")
                assert result.hit

            cell.sim.run(until=cell.sim.process(app()))
        assert client.closed
    # Cell exit closes every client it created.
    cell2 = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=2,
                          transport="pony"))
    with cell2:
        inner = cell2.connect_client()
    assert inner.closed


def test_client_public_methods_are_generators():
    """Operations must be drivable with `yield from` (documented model)."""
    from repro.core import CliqueMapClient
    for method in ("get", "set", "erase", "cas", "append", "get_multi",
                   "set_multi", "connect"):
        fn = getattr(CliqueMapClient, method)
        assert inspect.isgeneratorfunction(fn), method


def test_client_keeps_one_op_engine():
    """Retry policy — backoff, budget, attempt/deadline cap — lives in
    ``CliqueMapClient._run_op`` alone. A second call site of any of
    these anywhere in ``repro/core/`` (the client's lookup and mutation
    halves included) is a re-forked copy of the loop (there were three,
    and PR 3 had to fix one deadline spin in all of them)."""
    import ast
    import pathlib

    import repro.core

    sites = {"next_delay": [], "try_spend": [], "BackoffPolicy": []}
    root = pathlib.Path(repro.core.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in sites:
                    sites[name].append(path.name)
    assert sites == dict.fromkeys(sites, ["client.py"])


def test_core_surface_is_frozen():
    """The engine refactor changed no public name and added no knob."""
    import dataclasses

    from repro import core

    assert sorted(core.__all__) == sorted("""
        Backend BackendConfig BackendStats Cell CellSpec make_transport
        CHECKSUM_BYTES checksum_ok kv_checksum BackendView ClientConfig
        CliqueMapClient GetResult MutationResult OpResult
        CellConfig ConfigStore GetStrategy ReplicationMode
        DataEntryView DataRegion encode_entry_parts entry_size try_decode
        CliqueMapError ConfigCasError GetStatus SetStatus ArcPolicy
        EvictionPolicy LruPolicy RandomPolicy make_policy FederatedClient
        ZoneShard ZoneShardSpec ZoneWorkloadSpec shard_builders
        KEY_HASH_BYTES Placement default_key_hash key_hash_to_int
        ENTRY_BYTES IndexRegion ParsedBucket ParsedIndexEntry bucket_size
        make_scar_program parse_bucket MaintenanceConfig
        MaintenanceController MaintenanceStats Ballot QuorumDecision
        QuorumOutcome ReplicaVote VoteKind evaluate RepairConfig
        RepairScanner RepairStats
        ResizeConfig ResizeController ResizeStats BackendHealth
        BackoffPolicy RetryBudget SlabAllocator TombstoneCache
        TrueTime VERSION_BYTES VersionFactory VersionNumber""".split())
    assert [f.name for f in dataclasses.fields(core.ClientConfig)] == """
        default_deadline max_retries retry_backoff retry_backoff_cap
        retry_budget_capacity retry_budget_fill_rate
        mutation_rpc_deadline touch_enabled touch_flush_interval
        reconnect_interval overflow_rpc_lookup force_primary_data_fetch
        compression_enabled""".split()


def test_handoff_config_fields_are_frozen():
    """Repair, resize and maintenance keep only knobs some caller sets:
    RPC deadlines and the MigrateIn batch are constants of the handoff
    plane (``core/repair.py``), not per-owner fields."""
    import dataclasses

    from repro import core

    def names(config):
        return [f.name for f in dataclasses.fields(config)]

    assert names(core.RepairConfig) == ["scan_interval", "enabled"]
    assert names(core.ResizeConfig) == ["max_sweeps", "sweep_interval",
                                        "drain_grace"]
    assert names(core.MaintenanceConfig) == ["restart_delay",
                                             "crash_restart_delay"]


def test_soak_config_fields_are_frozen():
    """The soak harness keeps only knobs some caller sets; a new one
    needs a caller in src/, tests/ or benchmarks/ and a line here."""
    import dataclasses

    from repro.faults import SoakConfig

    assert [f.name for f in dataclasses.fields(SoakConfig)] == """
        seed duration settle num_shards num_keys transport scenario plan
        observe export_dir flight sor resize_config
        population population_rate population_sample_rate""".split()


def test_option_fields_are_frozen():
    """Options no caller set are module constants at their one value,
    not fields (``test_option_census.py``); a new field needs a caller
    in src/, benchmarks/ or examples/ and a line here."""
    import dataclasses

    from repro.baselines import MemcacheGConfig
    from repro.core import (BackendConfig, CellConfig, CellSpec,
                            ZoneShardSpec, ZoneWorkloadSpec)
    from repro.faults import Scenario
    from repro.net import CStateModel, FabricConfig, HostConfig
    from repro.observe import AutoscalerConfig, ObserveConfig, SloObjective
    from repro.storage import MissPolicy, ProvisionedThroughput
    from repro.transport import PonyCostModel, PonyScaleConfig
    from repro.workloads import AdsScenario, GeoScenario, PopulationConfig

    frozen = {
        BackendConfig: """num_buckets ways data_initial_bytes
            data_virtual_limit slab_bytes grow_watermark
            index_resize_load_factor eviction_policy overflow_rpc_fallback
            min_write_step atomic_entry_writes""",
        CellSpec: """name mode num_shards num_spares transport
            backend_config repair_config maintenance_config resize_config
            writer_principals seed tracing
            trace_sample_every trace_slow_threshold flight_recorder""",
        ObserveConfig: "probers",
        AutoscalerConfig: """scale_out_rps scale_in_rps min_shards
            max_shards cooldown""",
        MissPolicy: """negative_ttl backfill_budget
            backfill_fill_rate coalesce dirty_buffer_max fetch_deadline
            fetch_retries""",
        MemcacheGConfig: "capacity_bytes",
        ProvisionedThroughput: "read_units write_units burst_seconds",
        CellConfig: """name mode num_shards config_id shard_tasks spares
            spare_roles resize_num_shards migrating_to draining""",
        ZoneShardSpec: "zone zones cell_spec fabric_config workload duration",
        ZoneWorkloadSpec: """clients think_mean fanout_every remote_every
            shared_keys private_keys population_clients population_rate
            population_drivers population_keys seed export_traces""",
        Scenario: "events observe sor pressure",
        FabricConfig: """host_rate_bytes_per_sec one_way_delay delay_jitter
            inter_zone_delay seed""",
        CStateModel: "enabled idle_threshold",
        HostConfig: "cores c_state",
        SloObjective: "name cell target good total windows",
        PonyCostModel: "client_tx client_rx server_read scar_scan "
                       "per_kilobyte",
        PonyScaleConfig: """sample_interval scale_up_threshold
            scale_down_threshold""",
        AdsScenario: """num_shards num_clients num_keys get_rate_per_client
            write_rate_per_client backfill_period duration seed""",
        GeoScenario: """num_shards num_clients num_updaters num_keys
            base_get_rate_per_client day_length update_rate_per_client
            duration seed""",
        PopulationConfig: """num_clients rate_per_client duration
            op_sample_rate max_outstanding_per_client""",
    }
    for config, fields in frozen.items():
        assert [f.name for f in dataclasses.fields(config)] == \
            fields.split(), config.__name__


def _public_stat_names(stats):
    if isinstance(stats, dict):
        return sorted(stats)
    return sorted(name for name in dir(stats) if not name.startswith("_")
                  and not callable(getattr(stats, name)))


def test_stats_keys_are_frozen():
    """Every public ``stats`` key or field keeps its name: dashboards,
    soak reports and ``benchmarks/perf`` read them."""
    from repro import Cell, CellSpec
    from repro.baselines.memcacheg import MemcacheGServer
    from repro.core import (RepairConfig, ZoneShard, ZoneShardSpec,
                            ZoneWorkloadSpec)
    from repro.storage import SystemOfRecord
    from repro.workloads import WorkloadMetrics

    cell = Cell(CellSpec(num_shards=3, transport="pony",
                         repair_config=RepairConfig()))
    client = cell.connect_client()
    coordinator = cell.attach_sor(
        SystemOfRecord(cell.sim, cell.add_local_host("host/sor")))
    autoscaler = cell.observe().autoscale()
    memcacheg = MemcacheGServer(cell.sim, cell.add_local_host("host/mc"),
                                "mc")
    zone = ZoneShard(ZoneShardSpec(
        zone="dc-a", zones=("dc-a", "dc-b"), cell_spec=CellSpec(num_shards=3),
        workload=ZoneWorkloadSpec(clients=1, shared_keys=1, private_keys=1)))
    zone.build()
    surfaces = {
        "client": client.stats,
        "readthrough": coordinator.stats,
        "backend": cell.backends["backend-0"].stats,
        "repair": cell.scanners["backend-0"].stats,
        "resize": cell.resize.stats,
        "maintenance": cell.maintenance.stats,
        "autoscaler": autoscaler.stats,
        "memcacheg": memcacheg.stats,
        "transport": cell.transport.counters,
        "federated": zone.fed_clients[0].stats,
        "workload": WorkloadMetrics(),
    }
    assert {name: " ".join(_public_stat_names(stats))
            for name, stats in surfaces.items()} == {
        "client": "appends cas config_refreshes erases get_errors gets "
                  "hits inquorate misses overflow_lookups retries "
                  "retries_shed sets sor_hits torn_reads "
                  "validation_failures version_races view_refreshes",
        "readthrough": "buffer_overflows buffered_serves coalesced errors "
                       "fetches fills negative_hits shed sor_hits "
                       "sor_misses sync_writes throttled writebacks "
                       "writebacks_dropped writebacks_rejected "
                       "writebacks_throttled",
        "backend": "cas_applied cas_failed data_region_grows defrag_moves "
                   "erases_applied evictions_associativity "
                   "evictions_capacity index_resizes overflow_inserts "
                   "repairs_applied rpc_lookups sets_applied "
                   "sets_superseded",
        "repair": "dirty_quorums_found keys_recovered keys_repaired "
                  "restart_recoveries rpc_errors scans",
        "resize": "aborted entries_backfilled entries_purged grows "
                  "last_handoff_seconds shrinks sweeps",
        "maintenance": "entries_migrated migration_rpc_errors "
                       "planned_migrations unplanned_restarts",
        "autoscaler": "blocked evaluations grows shrinks",
        "memcacheg": "deletes evictions gets hits sets",
        "transport": "batched_keys batched_reads bytes_fetched corrupted "
                     "failures messages reads scars",
        "federated": "local_hits misses remote_hits",
        "workload": "get_errors get_latency get_timeline gets hit_rate "
                    "hits offered set_latency set_timeline sets shed "
                    "shed_rate thinned",
    }


#: The facts a component's ``stats`` and a registry family once counted
#: at two write sites, by the module that counts them. Each is now one
#: tally entry that ``stats`` reads.
_TALLIED_STATS = {
    "core/client.py": "gets sets erases cas appends hits misses get_errors "
                      "retries validation_failures inquorate retries_shed",
    "storage/readthrough.py": "sor_hits sor_misses negative_hits "
                              "buffered_serves coalesced shed throttled "
                              "errors writebacks writebacks_throttled "
                              "writebacks_rejected writebacks_dropped",
    "core/repair.py": "rpc_errors",
    "core/maintenance.py": "planned_migrations unplanned_restarts "
                           "migration_rpc_errors",
    "core/resize.py": "grows shrinks aborted entries_backfilled",
    "observe/autoscale.py": "evaluations grows shrinks blocked",
    "transport/base.py": "batched_keys",
    "transport/pony.py": "batched_keys",
    "transport/onerma.py": "batched_keys",
    "transport/rdma.py": "batched_keys",
    "workloads/generators.py": "shed",
}
#: The client's lookup and mutation halves count the client's facts.
_CLIENT_HALVES = ("core/lookup.py", "core/mutation.py")


def test_one_write_site_per_counted_fact():
    """Counters are tallies: outside ``telemetry/`` nothing increments a
    registry series, no ``stats`` store increments a tallied fact, and
    the handle caches and late-bound registry paths stay deleted."""
    import pathlib
    import re

    import repro

    assert sum(len(keys.split()) for path, keys in _TALLIED_STATS.items()
               if not path.startswith("transport/")) + 1 == 38
    root = pathlib.Path(repro.__file__).parent
    increment = re.compile(
        r"\b(?:stats|counters|metrics|_counts)\s*"
        r"(?:\[\s*[\"'](\w+)[\"']\s*\]|\.(\w+))\s*\+=")
    gone = ("_h_ops", "_h_fetches", "_h_batch_keys", "_STAT_KEY",
            "_h_requests", "bind_registry", "_series_cache",
            "_series_registry", "fabric.registry")
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("telemetry/"):
            continue
        source = path.read_text()
        assert ".inc(" not in source, rel
        for name in gone:
            assert name not in source, (rel, name)
        owner = "core/client.py" if rel in _CLIENT_HALVES else rel
        tallied = set(_TALLIED_STATS.get(owner, "").split())
        for match in increment.finditer(source):
            key = match.group(1) or match.group(2)
            assert key not in tallied, (rel, match.group(0))
