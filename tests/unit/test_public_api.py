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
    these is a re-forked copy of the loop (there were three, and PR 3
    had to fix one deadline spin in all of them)."""
    import repro.core.client as client_module

    source = inspect.getsource(client_module)
    for call in ("next_delay(", "try_spend(", "BackoffPolicy("):
        assert source.count(call) == 1, call


def test_core_surface_is_frozen():
    """The engine refactor changed no public name and added no knob."""
    import dataclasses

    from repro import core

    assert sorted(core.__all__) == sorted("""
        Backend BackendConfig BackendStats Cell CellSpec make_transport
        CHECKSUM_BYTES checksum_ok kv_checksum BackendView ClientConfig
        ClientCostModel CliqueMapClient GetResult MutationResult OpResult
        CellConfig ConfigStore GetStrategy ReplicationMode
        DataEntryView DataRegion encode_entry_parts entry_size try_decode
        CliqueMapError ConfigCasError GetStatus SetStatus ArcPolicy
        EvictionPolicy LruPolicy RandomPolicy make_policy FederatedClient
        Federation FederationSpec build_zone_cell RemoteZoneProxy ZoneShard
        ZoneShardSpec ZoneWorkloadSpec run_plain_federation shard_builders
        KEY_HASH_BYTES Placement default_key_hash key_hash_to_int
        ENTRY_BYTES IndexRegion ParsedBucket ParsedIndexEntry bucket_size
        make_scar_program parse_bucket MaintenanceConfig
        MaintenanceController MaintenanceStats Ballot QuorumDecision
        QuorumOutcome ReplicaVote VoteKind evaluate RepairConfig
        RepairScanner RepairStats
        ResizeConfig ResizeController ResizeStats BackendHealth
        BackoffPolicy HealthPolicy RetryBudget SlabAllocator TombstoneCache
        TrueTime VERSION_BYTES VersionFactory VersionNumber""".split())
    assert [f.name for f in dataclasses.fields(core.ClientConfig)] == """
        default_deadline max_retries retry_backoff retry_backoff_cap
        retry_budget_capacity retry_budget_fill_rate health
        mutation_rpc_deadline touch_enabled touch_flush_interval
        reconnect_interval overflow_rpc_lookup force_primary_data_fetch
        compression_enabled compression_min_bytes costs""".split()


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
        observe export_dir flight sor sor_throughput resize_config
        population population_rate population_sample_rate""".split()


def test_option_fields_are_frozen():
    """Options no caller set are module constants at their one value,
    not fields; a new field needs a caller in src/, benchmarks/ or
    examples/ and a line here."""
    import dataclasses

    from repro.baselines import MemcacheGConfig
    from repro.core import BackendConfig, CellSpec
    from repro.observe import AutoscalerConfig, ObserveConfig
    from repro.storage import MissPolicy, ProvisionedThroughput

    frozen = {
        BackendConfig: """num_buckets ways data_initial_bytes
            data_virtual_limit slab_bytes grow_watermark
            index_resize_load_factor eviction_policy overflow_rpc_fallback
            overflow_capacity min_write_step atomic_entry_writes
            per_kilobyte_cpu old_window_grace""",
        CellSpec: """name mode num_shards num_spares transport
            backend_config repair_config maintenance_config resize_config
            fabric_config host_config writer_principals seed tracing
            trace_sample_every trace_slow_threshold flight_recorder""",
        ObserveConfig: """scrape_interval retention_points
            retention_seconds histogram_sum probers prober objectives""",
        AutoscalerConfig: """evaluate_interval load_window scale_out_rps
            scale_in_rps min_shards max_shards cooldown hysteresis_rounds""",
        MissPolicy: """read_through negative_ttl backfill_budget
            backfill_fill_rate coalesce dirty_buffer_max fetch_deadline
            fetch_retries""",
        MemcacheGConfig: "capacity_bytes per_kilobyte_cpu",
        ProvisionedThroughput: "read_units write_units burst_seconds",
    }
    for config, fields in frozen.items():
        assert [f.name for f in dataclasses.fields(config)] == \
            fields.split(), config.__name__
