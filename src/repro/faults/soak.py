"""A seeded chaos soak: plan faults, churn load, verify invariants.

``run_soak`` stands up a cell and replays a :class:`FaultPlan` — drawn
from the seed, or a named row of :data:`SCENARIOS` — through a
:class:`FaultInjector` while writers and a reader churn. It checks what
every CliqueMap mechanism exists to protect: a HIT never returns a value
that was not written to that key; after the faults heal and repairs
settle every key reads back as its last acknowledged write (or a
concurrently-written value); and the replicas agree.

The report carries the plan, the violations (hopefully empty) and the
reaction metric totals, so a run's whole story is printable from one
object (``repro.analysis.render_soak_report``, behind
``python -m repro.tools chaos`` and ``observe``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import (BackendConfig, Cell, CellSpec, ClientConfig,
                    CliqueMapError, GetStatus, GetStrategy, RepairConfig,
                    ReplicationMode, ResizeConfig, SetStatus)
from ..sim import RandomStream
from .plan import DEFAULT_KINDS, FaultInjector, FaultPlan

# Harness shape no caller varies.
NUM_WRITERS = 2
REPAIR_SCAN_INTERVAL = 0.25
SOR_COLD_KEYS = 64
POPULATION_DRIVERS = 2
# The "pressure" scenario: a data arena small enough that a writer of
# padded values over a disjoint ``pressure-%05d`` keyspace forces
# capacity evictions while the handoff copies entries.
PRESSURE_ARENA_BYTES = 256 * 1024
PRESSURE_KEYS = 128
PRESSURE_VALUE_BYTES = 2048

#: Fault window a windowed scenario gets when the caller names none
#: (the ``observe`` CLI's --fault-at / --fault-duration defaults).
FAULT_AT, FAULT_DURATION = 0.8, 0.6

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


@dataclass(frozen=True)
class Scenario:
    """One named soak scenario: its schedule and what it switches on."""

    # (duration, num_shards, fault_at, fault_duration) -> the schedule
    # before its closing heal_all; None draws the seeded random plan.
    events: Optional[Callable[[float, int, float, float], FaultPlan]]
    observe: bool = False     # attach the observability plane
    sor: bool = False         # attach a SoR, its cold reader and backfill herd
    pressure: bool = False    # small data arena + padded-value writer

    def plan(self, duration: float, num_shards: int,
             fault_at: float = FAULT_AT,
             fault_duration: float = FAULT_DURATION) -> FaultPlan:
        return self.events(duration, num_shards, fault_at,
                           fault_duration).add(duration, "heal_all")


# Cut client_hosts[3] off from quorum-many backends (2 of R=3): a single
# partition would be quorum-masked and invisible. The soak's hosts are
# writers (0..1), reader (2), then probers, so under the plane index 3
# is the first prober and the availability burn alert fires; without
# the plane it wraps around to a writer, whose SETs must ride retries.
def _cut_first_prober(plan: FaultPlan, at: float) -> FaultPlan:
    plan.add(at, "partition", client=3, shard=0)
    return plan.add(at, "partition", client=3, shard=1)


def _grow_shrink(grow_at: float, shrink_at: float) -> FaultPlan:
    return FaultPlan().add(grow_at, "resize", action="grow", count=1) \
        .add(shrink_at, "resize", action="shrink", count=1)


#: Every named scenario, in one place: ``SoakConfig.scenario`` selects a
#: row; ``observe --fault`` offers the un-namespaced names, which land
#: one fault in the caller's window on a probed cell; ``chaos --resize``
#: offers the ``resize/`` ones, which grow the cell by one task at 25%
#: of the window and shrink it back at 65% with an antagonist landing
#: just after the grow starts, mid-handoff. The lambdas' ``(d, n, at,
#: span)`` are ``(duration, num_shards, fault_at, fault_duration)``. A
#: new scenario is a new row plus its golden lines in
#: tests/unit/test_faults_plan.py.
SCENARIOS: Dict[str, Scenario] = {
    "none": Scenario(lambda d, n, at, span: FaultPlan(), observe=True),
    "partition": Scenario(
        lambda d, n, at, span:
        _cut_first_prober(FaultPlan(), at).add(at + span, "heal_all"),
        observe=True),
    "gray-loss": Scenario(
        lambda d, n, at, span: FaultPlan().add(
            at, "gray", duration=span, shard=0, loss_probability=0.5),
        observe=True),
    "gray-slow": Scenario(
        lambda d, n, at, span: FaultPlan().add(
            at, "gray", duration=span, shard=0, latency_multiplier=8.0),
        observe=True),
    # Degrade the SoR's provisioned capacity while the backfill herd
    # hammers the miss path: the admission budget should shed load so
    # foreground SLOs stay green.
    "sor-brownout": Scenario(
        lambda d, n, at, span: FaultPlan().add(
            at, "sor_brownout", factor=0.1, duration=span),
        observe=True, sor=True),
    # The handoff must stay invisible to the SLO plane.
    "resize": Scenario(
        lambda d, n, at, span: _grow_shrink(at, at + span), observe=True),
    "resize/cycle": Scenario(
        lambda d, n, at, span: _grow_shrink(0.25 * d, 0.65 * d)),
    "resize/partition": Scenario(
        lambda d, n, at, span: _cut_first_prober(
            _grow_shrink(0.25 * d, 0.65 * d), 0.25 * d + 0.01 * d)
        .add(0.5 * d, "heal").add(0.5 * d, "heal")),
    "resize/gray": Scenario(
        lambda d, n, at, span: _grow_shrink(0.25 * d, 0.65 * d).add(
            0.25 * d + 0.01 * d, "gray", duration=0.2 * d, shard=1,
            loss_probability=0.25)),
    # The first joiner a grow creates on a fresh cell is
    # deterministically named backend-<num_shards>.
    "resize/target_crash": Scenario(
        lambda d, n, at, span: _grow_shrink(0.25 * d, 0.65 * d).add(
            0.25 * d + 0.005 * d, "crash_task", task=f"backend-{n}",
            restart_delay=0.02 * d)),
    # The antagonist is not a plan event: it is the pressure writer.
    "resize/pressure": Scenario(
        lambda d, n, at, span: _grow_shrink(0.25 * d, 0.65 * d),
        pressure=True),
}


@dataclass
class SoakConfig:
    """Everything a reproducible soak needs."""

    seed: int = 1
    duration: float = 2.0          # fault-injection window (simulated s)
    settle: float = 2.0            # post-heal repair/convergence window
    num_shards: int = 3
    num_keys: int = 12
    transport: str = "pony"
    # A row of SCENARIOS: its plan replaces the seeded random one and
    # its needs (plane, SoR, pressure writer) are switched on. None (the
    # default) leaves existing seeded soaks untouched.
    scenario: Optional[str] = None
    # Replay this exact plan instead of the scenario's or the seed's.
    # Partition events index ``client_hosts`` as workload clients first
    # (writers then reader), then prober hosts.
    plan: Optional[FaultPlan] = None
    # Attach the observability plane (scraper + probers + SLO burn-rate
    # alerting) for the soak's duration; alerts and SLIs land in the
    # report.
    observe: bool = False
    # With the plane: write timeseries.json + trace.json into this
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
    # System-of-record miss pipeline (opt-in; the default leaves the
    # soak byte-identical to pre-PR-6 runs): attach a provisioned-
    # throughput SoR pre-loaded with SOR_COLD_KEYS cold keys, read them
    # through the coordinator throughout the run, sweep them with an
    # admission-controlled backfill storm (the herd's background
    # pressure), and draw ``sor_brownout`` into the seeded plan.
    sor: bool = False
    # Shapes the handoff of a plan's ``resize`` events.
    resize_config: Optional[ResizeConfig] = None
    # Aggregate client population (opt-in; 0 leaves existing seeded
    # soaks byte-identical). ``population`` models that many clients
    # issuing zipf GETs over the chaos keyspace via Poisson
    # superposition on POPULATION_DRIVERS real driver clients
    # (see repro.workloads.population); offered/shed/thinned accounting
    # lands in the report's population_stats.
    population: int = 0
    population_rate: float = 40.0        # offered GETs/s per modeled client
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
    # Populated when the soak ran under the plane: fired/resolved
    # alert transitions (dicts, sim-timestamped), the SLI summary, the
    # scraped time series, and any files written to export_dir.
    alerts: List[dict] = field(default_factory=list)
    sli: Optional[dict] = None
    timeseries: Optional[dict] = None
    exports: List[str] = field(default_factory=list)
    # Path of the postmortem bundle written into export_dir, or None
    # when the run was healthy (or no export_dir was configured).
    bundle: Optional[str] = None
    # Populated when the soak ran with a SoR: the coordinator's
    # stat counters, SoR-side totals, and the cold-keyspace read tally.
    sor_stats: Optional[dict] = None
    # Foreground-impact accounting, always populated: terminal SET
    # failures seen by the writers (and the pressure writer, when one
    # ran), plus the reader's terminal errors and inquorate retries —
    # the counters a fault-free resize must keep at zero.
    foreground: Optional[dict] = None
    # Populated when the plan that ran held a ``resize`` event: the
    # controller's counters plus the dual-write/backfill metric totals.
    resize_stats: Optional[dict] = None
    # Populated when config.population > 0: the aggregate population's
    # offered/delivered/shed/thinned accounting and hit rate.
    population_stats: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not (self.bad_hits or self.unrecovered or self.diverged)

    def fault_rows(self) -> List[List[str]]:
        return [[line] for line in self.injected]

    def reaction_rows(self) -> List[List[str]]:
        return [[family, f"{total:g}"]
                for family, total in self.metric_totals.items()]


def run_soak(config: Optional[SoakConfig] = None) -> SoakReport:
    """Run one seeded chaos soak to completion and report."""
    config = config or SoakConfig()
    if config.scenario is not None and config.scenario not in SCENARIOS:
        raise CliqueMapError(f"unknown soak scenario {config.scenario!r}; "
                             f"choose from {', '.join(SCENARIOS)}")
    scenario = SCENARIOS.get(config.scenario, Scenario(events=None))
    with_sor = config.sor or scenario.sor
    cell = Cell(CellSpec(
        mode=ReplicationMode.R3_2, num_shards=config.num_shards,
        transport=config.transport,
        backend_config=BackendConfig(
            data_initial_bytes=PRESSURE_ARENA_BYTES,
            data_virtual_limit=PRESSURE_ARENA_BYTES)
        if scenario.pressure else BackendConfig(),
        repair_config=RepairConfig(scan_interval=REPAIR_SCAN_INTERVAL),
        resize_config=config.resize_config or ResizeConfig(),
        flight_recorder=config.flight))
    sim = cell.sim
    sor = coordinator = None
    if with_sor:
        from ..storage import (MissPolicy, ProvisionedThroughput,
                               SystemOfRecord)
        sor_host = cell.add_local_host("host/sor")
        sor = SystemOfRecord(
            sim, sor_host,
            throughput=ProvisionedThroughput(read_units=400.0,
                                             write_units=400.0))
        sor.load({b"cold-%05d" % i: b"sor-%05d" % i
                  for i in range(SOR_COLD_KEYS)})
        coordinator = cell.attach_sor(sor, MissPolicy())
    plane = cell.observe() if config.observe or scenario.observe else None
    writers = [cell.connect_client() for _ in range(NUM_WRITERS)]
    reader = cell.connect_client(
        strategy=GetStrategy.TWO_R,
        client_config=ClientConfig(max_retries=6, default_deadline=5e-3))
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

    # Cold-keyspace churn (with a SoR): reads that MISS the cache and
    # resolve through the coordinator, so the soak exercises the miss
    # pipeline while faults fire. A HIT with a value that is neither
    # the SoR's nor a later write-behind overwrite is a real bug.
    sor_counts = {"hits": 0, "misses": 0, "errors": 0, "bad_hits": 0}

    def cold_reader_loop(rand):
        while not done[0]:
            i = rand.randint(0, SOR_COLD_KEYS - 1)
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

    # Eviction pressure: a dedicated writer hammers a disjoint padded
    # keyspace so the cache churns evictions while the handoff copies
    # entries.
    pressure_client = cell.connect_client() if scenario.pressure else None
    pressure_counts = {"writes": 0, "failed": 0}

    def pressure_loop(rand):
        pad = b"p" * PRESSURE_VALUE_BYTES
        generation = 0
        while not done[0]:
            i = rand.randint(0, PRESSURE_KEYS - 1)
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
        cold = [b"cold-%05d" % i for i in range(SOR_COLD_KEYS)]
        while not done[0]:
            yield from coordinator.warm(cold, concurrency=8)
            yield sim.delay(0.02)

    plan = config.plan
    if plan is None and scenario.events is not None:
        plan = scenario.plan(config.duration, config.num_shards)
    if plan is None:
        plan = FaultPlan.generate(
            stream.child("plan"), duration=config.duration,
            num_shards=config.num_shards, num_clients=len(clients),
            kinds=DEFAULT_KINDS + (("sor_brownout",) if with_sor else ()))
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
            max(1, min(POPULATION_DRIVERS, config.population)))]
        pop_keyspace = KeySpace(stream.child("population-keys"), keys,
                                prefix=b"chaos-key")
        population_gen = LoadGenerator(
            sim, pop_drivers, pop_keyspace,
            stream.child("population-load"), WorkloadMetrics())
        fault_targets.extend(c.host for c in pop_drivers)
    injector = FaultInjector(cell, plan, client_hosts=fault_targets)

    procs = [sim.process(writer_loop(client, tag, stream.child(f"w{tag}")))
             for tag, client in enumerate(writers)]
    procs.append(sim.process(reader_loop(stream.child("r"))))
    if pressure_client is not None:
        procs.append(sim.process(pressure_loop(stream.child("pressure"))))
    if with_sor:
        procs.append(sim.process(cold_reader_loop(stream.child("cold"))))
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
    injected = [f"t={at:.3f}s {event.kind} [{outcome}] " +
                " ".join(f"{k}={v:.3g}" if isinstance(v, float)
                         else f"{k}={v}"
                         for k, v in sorted(event.args.items()))
                for at, event, outcome in injector.injected]
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
                "injected": injected,
            })
        exports.append(bundle)
    if plane is not None:
        plane.stop()

    totals = {family: cell.metrics.total(family)
              for family in _REACTION_FAMILIES}
    observed = {} if plane is None else dict(
        alerts=[e.to_dict() for e in plane.engine.events],
        sli=plane.sli_summary(), timeseries=plane.scraper.to_dict())
    return SoakReport(
        config=config,
        plan_lines=plan.schedule_lines(),
        injected=injected,
        bad_hits=bad_hits,
        unrecovered=unrecovered,
        diverged=diverged,
        metric_totals=totals,
        **observed,
        exports=exports,
        bundle=bundle,
        foreground=dict(foreground),
        resize_stats=None
        if not any(e.kind == "resize" for e in plan.events) else {
            "controller": vars(cell.resize.stats).copy(),
            "resize_events": totals["cliquemap_resize_events_total"],
            "backfill_entries":
                totals["cliquemap_resize_backfill_entries_total"],
            "shadow_writes": totals["cliquemap_shadow_writes_total"],
            "migration_rpc_errors":
                totals["cliquemap_migration_rpc_errors_total"],
            "pressure": dict(pressure_counts)
            if pressure_client is not None else None,
        },
        population_stats=None if population_gen is None else {
            "modeled_clients": config.population,
            "drivers": len(population_gen.clients),
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
