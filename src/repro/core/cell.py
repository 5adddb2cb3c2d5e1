"""Cell assembly: hosts, transport, backends, spares, repair, maintenance.

A :class:`Cell` is a deployed CliqueMap instance: N backend tasks (one per
shard) plus optional warm spares, all wired to a simulated fabric and an
RMA transport, published to the external config store, with repair
scanners and a maintenance controller attached. It is the top-level
object examples and benchmarks build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net import Fabric, FabricConfig, Host, HostConfig
from ..rpc import Acl, Principal
from ..sim import Resource, Simulator
from ..telemetry import (NULL_FLIGHT, FlightRecorder, MetricsRegistry,
                         Tracer)
from ..transport import (OneRmaTransport, PonyTransport, RdmaTransport,
                         Transport)
from .backend import Backend, BackendConfig
from .client import ClientConfig, CliqueMapClient
from .errors import CliqueMapError
from .config import (CellConfig, ConfigStore, GetStrategy, ReplicationMode)
from .hashing import Placement
from .maintenance import MaintenanceConfig, MaintenanceController
from .repair import RepairConfig, RepairScanner
from .resize import ResizeConfig, ResizeController


@dataclass
class CellSpec:
    """Everything needed to stand up a cell."""

    name: str = "cell"
    mode: ReplicationMode = ReplicationMode.R3_2
    num_shards: int = 6
    num_spares: int = 0
    transport: str = "pony"               # pony | 1rma | rdma | none
    backend_config: BackendConfig = field(default_factory=BackendConfig)
    repair_config: RepairConfig = field(
        default_factory=lambda: RepairConfig(enabled=False))
    maintenance_config: MaintenanceConfig = field(
        default_factory=MaintenanceConfig)
    resize_config: ResizeConfig = field(default_factory=ResizeConfig)
    fabric_config: FabricConfig = field(default_factory=FabricConfig)
    host_config: HostConfig = field(default_factory=HostConfig)
    # When set, only these principal names may mutate the corpus (Set /
    # Erase / Cas); reads stay open to any authenticated principal.
    # Internal principals (repair@*, migrate@*, loader) keep working.
    writer_principals: Optional[List[str]] = None
    seed: int = 1
    # Span tracing for every op. Disabling it takes the null-telemetry
    # fast path: zero span objects allocated anywhere on the op path.
    tracing: bool = True
    # Tail-based trace sampling: when set, the tracer retains full span
    # trees only for error/slow ops plus a deterministic 1-in-N of the
    # rest. None keeps every finished root (bounded by the tracer's
    # max_retained).
    trace_sample_every: Optional[int] = None
    trace_slow_threshold: Optional[float] = None
    # Flight recorder: bounded ring of structured events (op ends,
    # retries, quarantine flips, config bumps, resize phases, faults,
    # alerts). Off by default — hook sites hold NULL_FLIGHT and take
    # the same zero-allocation fast path as disabled tracing.
    flight_recorder: bool = False


def make_transport(name: str, sim: Simulator, fabric: Fabric,
                   **kwargs) -> Optional[Transport]:
    """Transport factory keyed by the spec's transport name."""
    if name == "pony":
        return PonyTransport(sim, fabric, **kwargs)
    if name == "1rma":
        return OneRmaTransport(sim, fabric, **kwargs)
    if name == "rdma":
        return RdmaTransport(sim, fabric, **kwargs)
    if name in ("none", ""):
        return None
    raise ValueError(f"unknown transport {name!r}")


class Cell:
    """A running CliqueMap cell."""

    def __init__(self, spec: Optional[CellSpec] = None,
                 sim: Optional[Simulator] = None,
                 fabric: Optional[Fabric] = None,
                 transport: Optional[Transport] = None,
                 zone: str = "local"):
        self.spec = spec or CellSpec()
        self.zone = zone
        self.sim = sim or Simulator()
        self.fabric = fabric or Fabric(self.sim, self.spec.fabric_config)
        self.transport = transport if transport is not None else \
            make_transport(self.spec.transport, self.sim, self.fabric)
        self.config_store = ConfigStore(self.sim)
        self.placement = Placement(self.spec.num_shards,
                                   self.spec.mode.replicas)
        # One registry + tracer for the whole cell: every client created
        # through make_client() records into these, so benchmarks and the
        # dashboard read a single coherent snapshot. The fabric counts
        # drops/corruption/slow-links into the same registry.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            clock=lambda: self.sim.now, enabled=self.spec.tracing,
            seed=self.spec.seed, namespace=f"{self.spec.name}/{zone}",
            tail_sample_every=self.spec.trace_sample_every,
            tail_slow_threshold=self.spec.trace_slow_threshold)
        self.flight = FlightRecorder(clock=lambda: self.sim.now) \
            if self.spec.flight_recorder else NULL_FLIGHT
        self.fabric.registry = self.metrics
        if self.transport is not None:
            self.transport.registry = self.metrics

        # Attached lazily by observe(); None keeps the plane (scraper,
        # probers, SLO engine) entirely out of un-observed runs.
        self.observability = None

        # Attached by attach_sor(): the system of record behind this
        # cell and the read-through coordinator wiring clients to it.
        self.sor = None
        self.sor_coordinator = None

        self.backends: Dict[str, Backend] = {}
        self.scanners: Dict[str, RepairScanner] = {}
        self._spare_pool: List[str] = []
        self._client_count = 0
        self._client_seq = 0
        self._clients: List[CliqueMapClient] = []
        # Serializes topology-changing controllers (resize vs planned
        # maintenance); the config store's CAS backstops anyone who
        # bypasses it.
        self.topology_lock = Resource(self.sim, capacity=1)
        self._task_seq = self.spec.num_shards

        shard_tasks = []
        for shard in range(self.spec.num_shards):
            task = f"backend-{shard}"
            self._create_backend(task, shard)
            shard_tasks.append(task)
        for i in range(self.spec.num_spares):
            task = f"spare-{i}"
            self._create_backend(task, shard=-1)
            self._spare_pool.append(task)

        self.cell_config = CellConfig(
            name=self.spec.name, mode=self.spec.mode,
            num_shards=self.spec.num_shards, config_id=1,
            shard_tasks=shard_tasks, spares=list(self._spare_pool))
        self.config_store.publish(self.cell_config)

        self.maintenance = MaintenanceController(
            self.sim, self, self.spec.maintenance_config)
        self.resize = ResizeController(self.sim, self,
                                       self.spec.resize_config)
        if self.spec.repair_config.enabled:
            for task, backend in self.backends.items():
                if backend.shard >= 0:
                    self._start_scanner(task)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def add_local_host(self, name: str,
                       host_config: Optional[HostConfig] = None,
                       nic_rate: Optional[float] = None) -> Host:
        """Add a fabric host placed in this cell's zone.

        Zone-aware host placement for everything a cell owns (backends,
        loaders, probers, SoR endpoints): when the cell lives in a named
        zone (federation / sharded runs), the host name is prefixed with
        the zone so names stay unique across co-resident cells, and the
        host is placed in that zone so the fabric charges inter-zone
        latency on WAN crossings.
        """
        if self.zone != "local":
            name = f"{self.zone}/{name}"
        return self.fabric.add_host(name, host_config, nic_rate,
                                    zone=self.zone)

    def _create_backend(self, task: str, shard: int,
                        placement: Optional[Placement] = None) -> Backend:
        host = self.add_local_host(f"host/{task}", self.spec.host_config)
        backend = Backend(self.sim, host, task, shard,
                          placement if placement is not None
                          else self.placement,
                          self._cell_config_view(),
                          config=self.spec.backend_config,
                          transport=self.transport, registry=self.metrics)
        if self.spec.writer_principals is not None:
            backend.rpc_server.acl = self._build_writer_acl()
        self.backends[task] = backend
        return backend

    def _build_writer_acl(self) -> Acl:
        acl = Acl()
        for method in ("Set", "MultiSet", "Erase", "Cas"):
            for principal in self.spec.writer_principals:
                acl.allow(method, principal)
        # Internal machinery: repairs, migrations, corpus loaders, and
        # the read-through coordinator's cache fills (sor@<cell>).
        for method in ("Set", "MultiSet", "Erase", "Cas", "MigrateIn"):
            acl.allow_prefix(method, "repair@")
            acl.allow_prefix(method, "migrate@")
            acl.allow_prefix(method, "sor@")
            acl.allow(method, "loader")
        # Reads / metadata / maintenance stay open to any authenticated
        # principal (matching the paper's per-RPC ACL posture).
        for method in ("Info", "Lookup", "Touch", "ScanSummary",
                       "RepairGet", "Defragment", "MigrateIn"):
            acl.allow_prefix(method, "")
        return acl

    def _cell_config_view(self) -> CellConfig:
        # Before the store is published (during construction) synthesize
        # a minimal view; afterwards use the live generation.
        if hasattr(self, "cell_config"):
            return self.cell_config
        return CellConfig(name=self.spec.name, mode=self.spec.mode,
                          num_shards=self.spec.num_shards, config_id=1)

    def _start_scanner(self, task: str) -> None:
        scanner = RepairScanner(self.sim, self, self.backends[task],
                                self.spec.repair_config)
        self.scanners[task] = scanner
        scanner.start()

    # ------------------------------------------------------------------
    # Directory / topology
    # ------------------------------------------------------------------

    def backend_by_task(self, task: str) -> Backend:
        return self.backends[task]

    def task_for_shard(self, shard: int) -> str:
        return self.config_store.peek(self.spec.name).task_for_shard(shard)

    def new_task_name(self) -> str:
        """A backend task name never used in this cell (for grow)."""
        while True:
            task = f"backend-{self._task_seq}"
            self._task_seq += 1
            if task not in self.backends:
                return task

    def scanner_for(self, task: str) -> Optional[RepairScanner]:
        return self.scanners.get(task)

    def serving_backends(self) -> List[Backend]:
        config = self.config_store.peek(self.spec.name)
        return [self.backends[t] for t in config.shard_tasks]

    # ------------------------------------------------------------------
    # Reconfiguration (used by the maintenance controller)
    # ------------------------------------------------------------------

    def take_spare(self) -> Optional[str]:
        if not self._spare_pool:
            return None
        return self._spare_pool.pop(0)

    def return_spare(self, task: str) -> None:
        self._spare_pool.append(task)

    def repoint_shard(self, shard: int, task: str, spare_role: bool) -> None:
        """Point a shard at a (possibly spare) task; bump the generation."""

        def mutate(config: CellConfig) -> None:
            config.shard_tasks[shard] = task
            if spare_role:
                config.spare_roles[task] = shard
                if task in config.spares:
                    config.spares.remove(task)
            else:
                config.spare_roles = {t: s
                                      for t, s in config.spare_roles.items()
                                      if s != shard}
                config.spares = [t for t in self._spare_pool]

        updated = self.config_store.update(self.spec.name, mutate)
        self.adopt_config(updated)

    def adopt_config(self, updated: CellConfig) -> None:
        """Install a freshly-published generation cell-wide: backends
        stamp it into bucket headers so clients discover the
        reconfiguration during response validation (§6.1)."""
        self.cell_config = updated
        for backend in self.backends.values():
            if backend.alive:
                backend.adopt_config_id(updated.config_id)

    def restart_backend_task(self, task: str, shard: int) -> Backend:
        """Bring a task back with fresh (empty) state after a restart."""
        old = self.backends[task]
        old.host.restart()
        # Keep the old backend's placement: mid-resize a joining task
        # restarts under the *target* layout, not the cell's.
        backend = Backend(self.sim, old.host, task, shard, old.placement,
                          self.config_store.peek(self.spec.name),
                          config=self.spec.backend_config,
                          transport=self.transport, registry=self.metrics)
        self.backends[task] = backend
        if task in self.scanners or self.spec.repair_config.enabled:
            self._start_scanner(task)
        return backend

    # ------------------------------------------------------------------
    # Elastic resize (delegates to the resize controller)
    # ------------------------------------------------------------------

    def grow(self, count: int = 1):
        """Add ``count`` backend tasks online (a generator — drive it as
        a sim process). Returns the handoff summary dict."""
        return self.resize.grow(count)

    def shrink(self, tasks: Optional[List[str]] = None, count: int = 1):
        """Drain tasks out of the cell online (a generator)."""
        return self.resize.shrink(tasks=tasks, count=count)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------

    def make_client(self, host: Optional[Host] = None,
                    strategy: Optional[GetStrategy] = None,
                    client_config: Optional[ClientConfig] = None,
                    host_config: Optional[HostConfig] = None,
                    zone: Optional[str] = None,
                    principal: Optional[Principal] = None,
                    read_through: bool = True
                    ) -> CliqueMapClient:
        """Create (but do not connect) a client; drive ``client.connect()``.

        ``strategy`` accepts a :class:`GetStrategy` member or its string
        value (``"2xr"``, ``"scar"``, ``"msg"``, ``"rpc"``); anything else
        raises :class:`~repro.core.errors.CliqueMapError` here rather
        than failing mid-operation. ``zone`` places the client in a
        datacenter; None means this cell's own zone. A client in another
        zone than the cell is a WAN client: RMA is not applicable across
        the WAN, so it defaults to the RPC lookup strategy (Table 1,
        row 5) with WAN-scaled deadlines. ``read_through=False`` opts
        this client out of the attached SoR's miss pipeline (internal
        fill clients use this).
        """
        if strategy is not None:
            strategy = GetStrategy.coerce(strategy)
        if zone is None:
            zone = self.zone
        if host is None:
            self._client_count += 1
            name = f"host/client-{self._client_count}"
            if zone != "local":
                name = f"{zone}/{name}"
            host = self.fabric.add_host(
                name, host_config or self.spec.host_config, zone=zone)
        if zone != self.zone:
            if strategy is None:
                strategy = GetStrategy.RPC
            if client_config is None:
                # WAN-appropriate deadlines: each RPC crosses the
                # inter-zone link twice.
                wan_rtt = 2 * self.fabric.config.inter_zone_delay
                client_config = ClientConfig(
                    default_deadline=max(0.5, 20 * wan_rtt),
                    mutation_rpc_deadline=max(0.2, 10 * wan_rtt),
                    reconnect_interval=max(0.1, 5 * wan_rtt))
        if self.transport is None and strategy is None:
            strategy = GetStrategy.RPC
        # Per-cell client ids (not the process-global fallback counter):
        # ids feed version tiebreaks and backoff-jitter seeds, so two
        # identical runs in one process must hand out identical ids.
        self._client_seq += 1
        client = CliqueMapClient(
            self.sim, self.fabric, host, self.spec.name, self.config_store,
            self.backend_by_task, self.transport, strategy=strategy,
            config=client_config, principal=principal,
            registry=self.metrics, tracer=self.tracer,
            flight=self.flight, client_id=self._client_seq)
        if read_through and self.sor_coordinator is not None:
            client.read_through = self.sor_coordinator
        self._clients.append(client)
        return client

    def connect_client(self, **kwargs) -> CliqueMapClient:
        """Create a client and run its connect() to completion.

        The returned client is a context manager::

            with cell.connect_client() as client:
                ...

        flushes its buffered touch batches and releases its telemetry
        series on exit.
        """
        client = self.make_client(**kwargs)
        self.sim.run(until=self.sim.process(client.connect()))
        return client

    def observe(self, config=None):
        """Attach (and start) the observability plane for this cell.

        Idempotent: the first call builds and starts an
        :class:`~repro.observe.ObservabilityPlane` from ``config`` (an
        :class:`~repro.observe.ObserveConfig`, or None for defaults);
        later calls return the existing plane. Imported lazily so cells
        that never observe pay nothing for the plane.
        """
        if self.observability is None:
            from ..observe import ObservabilityPlane
            self.observability = ObservabilityPlane(self, config).start()
        return self.observability

    def attach_sor(self, sor, policy=None):
        """Attach a system of record behind this cell's miss path.

        ``sor`` must satisfy
        :class:`~repro.storage.SystemOfRecordProtocol`; ``policy`` is a
        :class:`~repro.storage.MissPolicy` (None -> defaults). Builds a
        :class:`~repro.storage.ReadThroughCoordinator` and wires it
        into every existing client and every client made afterwards
        (opt out per client with ``make_client(read_through=False)``).
        Returns the coordinator. Imported lazily so cells without an
        SoR pay nothing for the miss pipeline.
        """
        from ..storage import MissPolicy, SystemOfRecordProtocol
        from ..storage.readthrough import ReadThroughCoordinator
        if self.sor_coordinator is not None:
            raise CliqueMapError(
                "a system of record is already attached to this cell")
        if not isinstance(sor, SystemOfRecordProtocol):
            raise CliqueMapError(
                "attach_sor() needs a SystemOfRecordProtocol (name, "
                f"rpc_server, sealed, load, freeze); got {type(sor)!r}")
        if policy is None:
            policy = MissPolicy()
        existing = list(self._clients)
        coordinator = ReadThroughCoordinator(self, sor, policy)
        self.sor = sor
        self.sor_coordinator = coordinator
        for client in existing:
            client.read_through = coordinator
        if hasattr(sor, "bind_registry") and \
                getattr(sor, "registry", None) is None:
            sor.bind_registry(self.metrics)
        return coordinator

    def close(self) -> None:
        """Close every client created through this cell (idempotent).

        An attached read-through coordinator drains its write-behind
        buffer first, so acknowledged mutations reach the SoR before
        the cell is torn down.
        """
        if self.observability is not None:
            self.observability.stop()
        if self.sor_coordinator is not None:
            self.sor_coordinator.close()
        for client in self._clients:
            client.close()

    def __enter__(self) -> "Cell":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Aggregate stats
    # ------------------------------------------------------------------

    def total_dram_bytes(self) -> int:
        return sum(b.dram_used_bytes() for b in self.backends.values()
                   if b.alive)

    def total_backend_cpu_seconds(self) -> float:
        total = 0.0
        for backend in self.backends.values():
            ledger = backend.host.ledger
            total += ledger.seconds(f"backend:{backend.task_name}")
            total += ledger.seconds(f"rpc-server:{backend.rpc_server.name}")
        return total
