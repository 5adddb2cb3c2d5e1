"""A seeded chaos soak: plan faults, churn load, verify invariants.

``run_soak`` stands up a cell, generates a :class:`FaultPlan` from the
seed, and replays it through a :class:`FaultInjector` while writers and
a reader churn. It checks the two properties every CliqueMap mechanism
exists to protect:

1. a HIT never returns a value that was not written to that key;
2. after the faults heal and repairs settle, every key reads back as
   its last acknowledged write (or a concurrently-written value).

The report carries the plan, the violations (hopefully empty), and the
cell's final metrics snapshot, so a chaos run's whole story — injections
fired, retries spent and shed, quarantines entered, corrupt deliveries
caught — is printable from one object. Used by
``python -m repro.tools chaos`` and rebased chaos tests alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import (BackendConfig, Cell, CellSpec, ClientConfig,
                    CliqueMapError, GetStatus, GetStrategy,
                    MaintenanceConfig, RepairConfig, ReplicationMode,
                    ResizeConfig, SetStatus)
from ..sim import RandomStream
from .plan import DEFAULT_KINDS, FaultInjector, FaultPlan

#: Resize chaos scenarios accepted by ``SoakConfig.resize`` (and the
#: ``chaos --resize`` / ``observe --fault resize`` CLIs). Each schedules
#: a grow+shrink cycle; all but "cycle" land an antagonist fault on it.
RESIZE_SCENARIOS = ("cycle", "partition", "gray", "target_crash",
                    "pressure")

# Metric families summarized in SoakReport.reaction_rows(); the soak's
# reaction story in one table.
_REACTION_FAMILIES = (
    "cliquemap_faults_injected_total",
    "cliquemap_fabric_dropped_total",
    "cliquemap_fabric_corrupted_total",
    "cliquemap_fabric_slowed_total",
    "cliquemap_retries_total",
    "cliquemap_retries_shed_total",
    "cliquemap_loadgen_shed_total",
    "cliquemap_backend_quarantine_total",
    "cliquemap_maintenance_events_total",
    # Miss-pipeline families (0 when no SoR is attached).
    "cliquemap_sor_fetches_total",
    "cliquemap_sor_writebacks_total",
    "cliquemap_sor_requests_total",
    # Elastic-cell families (0 when no resize ran).
    "cliquemap_resize_events_total",
    "cliquemap_resize_backfill_entries_total",
    "cliquemap_shadow_writes_total",
    "cliquemap_migration_rpc_errors_total",
    "cliquemap_repair_rpc_errors_total",
    "cliquemap_autoscaler_decisions_total",
)


def resize_plan(scenario: str, duration: float,
                num_shards: int) -> FaultPlan:
    """Handcrafted plan for one resize chaos scenario.

    Every scenario grows the cell by one task at 25% of the window and
    shrinks back at 65%; the antagonist fault (when the scenario has
    one) lands just after the grow starts, so it hits mid-handoff.
    ``"pressure"``'s antagonist is not a plan event — it is the
    eviction-pressure writer :func:`run_soak` runs alongside.
    """
    if scenario not in RESIZE_SCENARIOS:
        raise CliqueMapError(
            f"unknown resize scenario {scenario!r}; choose from "
            f"{', '.join(RESIZE_SCENARIOS)}")
    plan = FaultPlan()
    grow_at = 0.25 * duration
    plan.add(grow_at, "resize", action="grow", count=1)
    plan.add(0.65 * duration, "resize", action="shrink", count=1)
    if scenario == "partition":
        # Cut client_hosts[3] off from quorum-many backends (2 of R=3)
        # across the heart of the handoff. Under ``observe`` that index
        # is the first prober (writers, reader, then probers), so the
        # availability burn alert fires and resolves; without the plane
        # it wraps around to a writer, whose SETs must ride retries.
        plan.add(grow_at + 0.01 * duration, "partition", client=3, shard=0)
        plan.add(grow_at + 0.01 * duration, "partition", client=3, shard=1)
        plan.add(grow_at + 0.25 * duration, "heal")
        plan.add(grow_at + 0.25 * duration, "heal")
    elif scenario == "gray":
        plan.add(grow_at + 0.01 * duration, "gray",
                 duration=0.2 * duration, shard=1, loss_probability=0.25)
    elif scenario == "target_crash":
        # The first joiner a grow creates on a fresh cell is
        # deterministically named backend-<num_shards>.
        plan.add(grow_at + 0.005 * duration, "crash_task",
                 task=f"backend-{num_shards}",
                 restart_delay=0.02 * duration)
    plan.add(duration, "heal_all")
    return plan


@dataclass
class SoakConfig:
    """Everything a reproducible soak needs."""

    seed: int = 1
    duration: float = 2.0          # fault-injection window (simulated s)
    settle: float = 2.0            # post-heal repair/convergence window
    num_shards: int = 3
    num_keys: int = 12
    num_writers: int = 2
    transport: str = "pony"
    mean_fault_interval: float = 0.15
    kinds: Tuple[str, ...] = DEFAULT_KINDS
    repair_scan_interval: float = 0.25
    reader_config: ClientConfig = field(default_factory=lambda: ClientConfig(
        max_retries=6, default_deadline=5e-3))
    # Attach the observability plane (scraper + probers + SLO burn-rate
    # alerting) for the soak's duration; alerts and SLIs land in the
    # report. ``observe_config`` is an
    # :class:`~repro.observe.ObserveConfig` (None -> defaults).
    observe: bool = False
    observe_config: Optional[object] = None
    # Replay this exact plan instead of generating one from the seed.
    # Partition events index ``client_hosts`` as workload clients first
    # (writers then reader), then prober hosts — so with the default 2
    # writers, ``client=3`` partitions the first prober.
    plan: Optional[FaultPlan] = None
    # With observe: write timeseries.json + trace.json into this
    # directory before the plane stops (used by the observe CLI and CI).
    # When a run ends badly — an invariant violation or a fired SLO
    # alert — a postmortem bundle also lands here (healthy runs write
    # no bundle; see repro.observe.postmortem).
    export_dir: Optional[str] = None
    # Arm the cell's flight recorder (bounded structured event ring:
    # op outcomes, retries, quarantines, config bumps, resize phases,
    # fault injections, alert transitions). Off by default — recording
    # is cheap but not free, and default soaks stay byte-identical.
    flight: bool = False
    flight_capacity: int = 4096
    # System-of-record miss pipeline (all opt-in; defaults leave the
    # soak byte-identical to pre-PR-6 runs). With ``sor=True`` the soak
    # attaches a provisioned-throughput SoR pre-loaded with
    # ``sor_cold_keys`` cold keys, and a dedicated reader exercises the
    # read-through path on them throughout the run. ``sor_backfill``
    # adds a warming storm (admission-controlled backfill sweeps over
    # the cold keyspace) — the herd scenario's background pressure.
    sor: bool = False
    sor_policy: Optional[object] = None          # MissPolicy
    sor_throughput: Optional[object] = None      # ProvisionedThroughput
    sor_cold_keys: int = 64
    sor_backfill: bool = False
    # Resize chaos (opt-in; defaults leave existing seeded soaks
    # untouched). ``resize`` names a scenario from RESIZE_SCENARIOS and
    # replaces the generated plan with :func:`resize_plan` (unless an
    # explicit ``plan`` is given). ``resize_config`` shapes the handoff;
    # ``backend_config`` reaches the cell spec (the "pressure" scenario
    # shrinks ``data_virtual_limit`` through it so eviction churns
    # during the handoff). The pressure writer hammers a disjoint
    # ``pressure-%05d`` keyspace with padded values.
    resize: Optional[str] = None
    resize_config: Optional[ResizeConfig] = None
    backend_config: Optional[BackendConfig] = None
    pressure_keys: int = 128
    pressure_value_bytes: int = 512
    # Aggregate client population (opt-in; 0 leaves existing seeded
    # soaks byte-identical). ``population`` models that many clients
    # issuing zipf GETs over the chaos keyspace via Poisson
    # superposition on ``population_drivers`` real driver clients
    # (see repro.workloads.population); offered/shed/thinned accounting
    # lands in the report's population_stats.
    population: int = 0
    population_rate: float = 40.0        # offered GETs/s per modeled client
    population_drivers: int = 2
    population_sample_rate: float = 1.0


@dataclass
class SoakReport:
    """Outcome of one soak run."""

    config: SoakConfig
    plan_lines: List[str]
    injected: List[str]                  # events as applied (with outcome)
    bad_hits: List[Tuple[int, bytes]]    # HITs of never-written values
    unrecovered: List[Tuple[int, object, Optional[bytes]]]
    diverged: List[int]                  # keys where replicas disagree
    metric_totals: Dict[str, float]      # family -> total across series
    snapshot: dict                       # full registry snapshot
    # Populated when the soak ran with config.observe: fired/resolved
    # alert transitions (dicts, sim-timestamped), the SLI summary, the
    # scraped time series, and any files written to export_dir.
    alerts: List[dict] = field(default_factory=list)
    sli: Optional[dict] = None
    timeseries: Optional[dict] = None
    exports: List[str] = field(default_factory=list)
    # Path of the postmortem bundle written into export_dir, or None
    # when the run was healthy (or no export_dir was configured).
    bundle: Optional[str] = None
    # Populated when the soak ran with config.sor: the coordinator's
    # stat counters, SoR-side totals, and the cold-keyspace read tally.
    sor_stats: Optional[dict] = None
    # Foreground-impact accounting, always populated: terminal SET
    # failures seen by the writers (and the pressure writer, when one
    # ran), plus the reader's terminal errors and inquorate retries —
    # the counters a fault-free resize must keep at zero.
    foreground: Optional[dict] = None
    # Populated when config.resize named a scenario: the resize
    # controller's counters plus the dual-write/backfill metric totals.
    resize_stats: Optional[dict] = None
    # Populated when config.population > 0: the aggregate population's
    # offered/delivered/shed/thinned accounting and hit rate.
    population_stats: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.bad_hits and not self.unrecovered \
            and not self.diverged

    def fault_rows(self) -> List[List[str]]:
        return [[line] for line in self.injected]

    def reaction_rows(self) -> List[List[str]]:
        return [[family, f"{total:g}"]
                for family, total in self.metric_totals.items()]

    def alert_rows(self) -> List[List[str]]:
        return [[f"t={a['at']:.3f}s", a["kind"],
                 f"{a['cell']}/{a['objective']}", a["severity"],
                 f"burn={a['burn_long']:.1f}/{a['burn_short']:.1f}"]
                for a in self.alerts]


def _registry_totals(registry) -> Dict[str, float]:
    totals = {}
    for family in _REACTION_FAMILIES:
        totals[family] = registry.total(family)
    return totals


def run_soak(config: Optional[SoakConfig] = None) -> SoakReport:
    """Run one seeded chaos soak to completion and report."""
    config = config or SoakConfig()
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=config.num_shards,
        transport=config.transport,
        backend_config=config.backend_config or BackendConfig(),
        repair_config=RepairConfig(
            enabled=True, scan_interval=config.repair_scan_interval),
        maintenance_config=MaintenanceConfig(),
        resize_config=config.resize_config or ResizeConfig(),
        flight_recorder=config.flight,
        flight_capacity=config.flight_capacity))
    sim = cell.sim
    sor = None
    coordinator = None
    if config.sor:
        from ..storage import (MissPolicy, ProvisionedThroughput,
                               SystemOfRecord)
        sor_host = cell.add_local_host("host/sor")
        sor = SystemOfRecord(
            sim, sor_host,
            throughput=config.sor_throughput or ProvisionedThroughput(
                read_units=400.0, write_units=400.0))
        sor.load({b"cold-%05d" % i: b"sor-%05d" % i
                  for i in range(config.sor_cold_keys)})
        coordinator = cell.attach_sor(sor, config.sor_policy or MissPolicy())
    plane = cell.observe(config.observe_config) if config.observe else None
    writers = [cell.connect_client() for _ in range(config.num_writers)]
    reader = cell.connect_client(strategy=GetStrategy.TWO_R,
                                 client_config=config.reader_config)
    clients = writers + [reader]
    stream = RandomStream(config.seed, "chaos")

    keys = config.num_keys
    written = {i: set() for i in range(keys)}   # all values ever written
    last_applied: Dict[int, bytes] = {}          # key -> last acked value
    bad_hits: List[Tuple[int, bytes]] = []
    foreground = {"writer_set_failures": 0, "pressure_set_failures": 0,
                  "reader_errors": 0, "reader_inquorate": 0}
    done = [False]

    def key_name(i):
        return b"chaos-key-%d" % i

    def seed_corpus():
        for i in range(keys):
            value = b"init-%d" % i
            result = yield from writers[0].set(key_name(i), value)
            assert result.status is SetStatus.APPLIED
            written[i].add(value)
            last_applied[i] = value

    sim.run(until=sim.process(seed_corpus()))

    def writer_loop(client, tag, rand):
        generation = 0
        # Each writer owns a disjoint slice of the keyspace so "last
        # acknowledged write" is unambiguous.
        own = [i for i in range(keys) if i % len(writers) == tag]
        while not done[0]:
            i = own[rand.randint(0, len(own) - 1)]
            generation += 1
            value = b"w%d-g%d" % (tag, generation)
            written[i].add(value)
            result = yield from client.set(key_name(i), value)
            if result.status is SetStatus.APPLIED:
                last_applied[i] = value
            else:
                foreground["writer_set_failures"] += 1
            yield sim.delay(rand.uniform(1e-3, 5e-3))

    def reader_loop(rand):
        while not done[0]:
            i = rand.randint(0, keys - 1)
            result = yield from reader.get(key_name(i))
            if result.status is GetStatus.HIT and \
                    result.value not in written[i] and \
                    result.source == "cache":
                bad_hits.append((i, result.value))
            yield sim.delay(rand.uniform(0.5e-3, 2e-3))

    # Cold-keyspace churn (config.sor): reads that MISS the cache and
    # resolve through the coordinator, so the soak exercises the miss
    # pipeline while faults fire. A HIT with a value that is neither
    # the SoR's nor a later write-behind overwrite is a real bug.
    sor_counts = {"hits": 0, "misses": 0, "errors": 0, "bad_hits": 0}

    def cold_reader_loop(rand):
        while not done[0]:
            i = rand.randint(0, config.sor_cold_keys - 1)
            result = yield from reader.get(b"cold-%05d" % i)
            if result.status is GetStatus.HIT:
                sor_counts["hits"] += 1
                if result.value != b"sor-%05d" % i:
                    sor_counts["bad_hits"] += 1
            elif result.ok:
                sor_counts["misses"] += 1
            else:
                sor_counts["errors"] += 1
            yield sim.delay(rand.uniform(1e-3, 4e-3))

    # Eviction pressure (config.resize == "pressure"): a dedicated
    # writer hammers a disjoint padded keyspace so the cache churns
    # evictions while the handoff copies entries. Pair with a small
    # ``backend_config.data_virtual_limit`` to actually hit the limit.
    pressure_client = cell.connect_client() \
        if config.resize == "pressure" else None
    pressure_counts = {"writes": 0, "failed": 0}

    def pressure_loop(rand):
        pad = b"p" * config.pressure_value_bytes
        generation = 0
        while not done[0]:
            i = rand.randint(0, config.pressure_keys - 1)
            generation += 1
            result = yield from pressure_client.set(
                b"pressure-%05d" % i, pad + b"-%d" % generation)
            pressure_counts["writes"] += 1
            if result.status is not SetStatus.APPLIED:
                pressure_counts["failed"] += 1
                foreground["pressure_set_failures"] += 1
            yield sim.delay(rand.uniform(0.5e-3, 2e-3))

    def backfill_loop():
        # A warming storm: sweep the whole cold keyspace through the
        # backfill class over and over. Admission control is what keeps
        # this from consuming the SoR's provisioned capacity.
        cold = [b"cold-%05d" % i for i in range(config.sor_cold_keys)]
        while not done[0]:
            yield from coordinator.warm(cold, concurrency=8)
            yield sim.delay(0.02)

    plan = config.plan
    if plan is None and config.resize is not None:
        plan = resize_plan(config.resize, config.duration,
                           config.num_shards)
    if plan is None:
        plan = FaultPlan.generate(
            stream.child("plan"), duration=config.duration,
            num_shards=config.num_shards, num_clients=len(clients),
            mean_interval=config.mean_fault_interval, kinds=config.kinds)
    # Workload clients first (generated plans only index those), then
    # prober hosts so handcrafted plans can partition a prober, then the
    # pressure writer (keeping prober indices stable across scenarios).
    fault_targets = [c.host for c in clients]
    if plane is not None:
        fault_targets.extend(p.client.host for p in plane.probers)
    if pressure_client is not None:
        fault_targets.append(pressure_client.host)

    # Aggregate client population (config.population): N modeled
    # clients' zipf GET traffic over the chaos keyspace, superposed onto
    # a small driver pool. Reads only — the invariant checkers above
    # stay the sole writers/arbiters. Set up *after* the plan is drawn
    # (stream.child consumes parent state) so enabling a population
    # never changes the seeded fault schedule; its driver hosts go last
    # in fault_targets so handcrafted plans keep their prober/pressure
    # indices while large populations still take partition faults
    # through their (few) drivers.
    population_gen = None
    if config.population > 0:
        from ..workloads import KeySpace, LoadGenerator, WorkloadMetrics
        pop_drivers = [cell.connect_client() for _ in range(
            max(1, min(config.population_drivers, config.population)))]
        pop_keyspace = KeySpace(stream.child("population-keys"), keys,
                                prefix=b"chaos-key")
        population_gen = LoadGenerator(
            sim, pop_drivers, pop_keyspace,
            stream.child("population-load"), WorkloadMetrics())
        fault_targets.extend(c.host for c in pop_drivers)
    injector = FaultInjector(cell, plan, client_hosts=fault_targets)

    procs = [
        sim.process(writer_loop(writers[tag], tag,
                                stream.child(f"w{tag}")))
        for tag in range(len(writers))
    ]
    procs.append(sim.process(reader_loop(stream.child("r"))))
    if pressure_client is not None:
        procs.append(sim.process(pressure_loop(stream.child("pressure"))))
    if config.sor:
        procs.append(sim.process(cold_reader_loop(stream.child("cold"))))
        if config.sor_backfill:
            procs.append(sim.process(backfill_loop()))
    if population_gen is not None:
        procs.extend(population_gen.start_population_gets(
            config.population, config.population_rate, config.duration,
            op_sample_rate=config.population_sample_rate))
    chaos = sim.process(injector.run())
    sim.run(until=chaos)
    done[0] = True
    sim.run(until=sim.all_of(procs))
    # Snapshot the reader's terminal counters before the settle-phase
    # verification sweep adds its own (healed-network) reads.
    foreground["reader_errors"] = reader.stats["get_errors"]
    foreground["reader_inquorate"] = reader.stats["inquorate"]

    # Let repairs settle, then verify full recovery.
    sim.run(until=sim.now + config.settle)

    # Under genuine eviction pressure a MISS is legitimate cache
    # behavior, not a lost write — the full-recovery invariant only
    # demands a HIT when nothing was ever evicted for capacity.
    evicted = sum(b.stats.evictions_capacity + b.stats.evictions_associativity
                  for b in cell.backends.values())

    def verify():
        mismatches = []
        for i in range(keys):
            result = yield from reader.get(key_name(i), deadline=0.5)
            if result.status is not GetStatus.HIT:
                if not (result.status is GetStatus.MISS and evicted):
                    mismatches.append((i, result.status, None))
            elif result.value != last_applied[i] and \
                    result.value not in written[i]:
                mismatches.append((i, result.status, result.value))
        return mismatches

    unrecovered = sim.run(until=sim.process(verify()))

    diverged = []
    for i in range(keys):
        values = {b.lookup_local(key_name(i))[0]
                  for b in cell.serving_backends()
                  if b.alive and b.lookup_local(key_name(i)) is not None}
        if len(values) > 1:
            diverged.append(i)

    exports: List[str] = []
    if plane is not None and config.export_dir:
        os.makedirs(config.export_dir, exist_ok=True)
        ts_path = os.path.join(config.export_dir, "timeseries.json")
        tr_path = os.path.join(config.export_dir, "trace.json")
        plane.write_timeseries(ts_path)
        plane.write_trace(tr_path)
        exports = [ts_path, tr_path]

    # Postmortem: a run that ended badly freezes its debugging state to
    # export_dir before anything is torn down. Healthy runs write no
    # bundle — CI's smoke job asserts on both halves of that contract.
    bundle = None
    violated = bool(bad_hits or unrecovered or diverged)
    fired = plane.engine.fired() if plane is not None else []
    if config.export_dir and (violated or fired):
        from ..observe.postmortem import write_postmortem_bundle
        reason = "invariant-violation" if violated else "slo-alert"
        bundle = write_postmortem_bundle(
            config.export_dir, reason, cell=cell, plane=plane,
            detail={
                "bad_hits": len(bad_hits),
                "unrecovered": len(unrecovered),
                "diverged": len(diverged),
                "alerts_fired": len(fired),
                "injected": [f"t={at:.3f}s {event.kind} [{outcome}]"
                             for at, event, outcome in injector.injected],
            })
        exports.append(bundle)
    if plane is not None:
        plane.stop()

    return SoakReport(
        config=config,
        plan_lines=plan.schedule_lines(),
        injected=[f"t={at:.3f}s {event.kind} [{outcome}] " +
                  " ".join(f"{k}={v:.3g}" if isinstance(v, float)
                           else f"{k}={v}"
                           for k, v in sorted(event.args.items()))
                  for at, event, outcome in injector.injected],
        bad_hits=bad_hits,
        unrecovered=unrecovered,
        diverged=diverged,
        metric_totals=_registry_totals(cell.metrics),
        snapshot=cell.metrics.snapshot(),
        alerts=[e.to_dict() for e in plane.engine.events]
        if plane is not None else [],
        sli=plane.sli_summary() if plane is not None else None,
        timeseries=plane.scraper.to_dict() if plane is not None else None,
        exports=exports,
        bundle=bundle,
        foreground=dict(foreground),
        resize_stats=None if config.resize is None else {
            "controller": vars(cell.resize.stats).copy(),
            "resize_events": cell.metrics.total(
                "cliquemap_resize_events_total"),
            "backfill_entries": cell.metrics.total(
                "cliquemap_resize_backfill_entries_total"),
            "shadow_writes": cell.metrics.total(
                "cliquemap_shadow_writes_total"),
            "migration_rpc_errors": cell.metrics.total(
                "cliquemap_migration_rpc_errors_total"),
            "pressure": dict(pressure_counts)
            if pressure_client is not None else None,
        },
        population_stats=None if population_gen is None else {
            "modeled_clients": config.population,
            "drivers": len(population_gen.clients),
            "rate_per_client": config.population_rate,
            "op_sample_rate": config.population_sample_rate,
            "offered": population_gen.metrics.offered,
            "shed": population_gen.metrics.shed,
            "thinned": population_gen.metrics.thinned,
            "delivered": population_gen.metrics.gets,
            "hits": population_gen.metrics.hits,
            "hit_rate": population_gen.metrics.hit_rate,
            "errors": population_gen.metrics.get_errors,
            "shed_rate": population_gen.metrics.shed_rate,
        },
        sor_stats=None if coordinator is None else {
            "coordinator": dict(coordinator.stats),
            "coalescing_ratio": coordinator.coalescing_ratio(),
            "dirty_depth": coordinator.dirty_depth,
            "backfill_shed": coordinator.backfill_budget.shed,
            "sor_reads": sor.reads,
            "sor_writes": sor.writes,
            "sor_throttled": sor.throttled,
            "cold_reads": dict(sor_counts),
        })
