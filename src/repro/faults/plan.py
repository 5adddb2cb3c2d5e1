"""Deterministic fault plans and their injector.

A :class:`FaultPlan` is a seeded, inspectable schedule of fault events —
backend crashes, client↔backend partitions/heals, gray failures (loss,
corruption, slow links), and NIC antagonists. A :class:`FaultInjector`
replays a plan against a live :class:`~repro.core.Cell`, delegating
crashes to the cell's :class:`~repro.core.MaintenanceController` and
gray failures to :meth:`~repro.net.Fabric.degrade_host`, counting every
injection into the cell's metrics registry and dropping a marker span
into its tracer.

Because the plan is generated from a :class:`~repro.sim.RandomStream`
and the simulation itself is deterministic, the same seed produces the
same fault schedule *and* the same final metric counts, run after run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence, Tuple

from ..net import Host, LinkFault
from ..sim import RandomStream

# Kinds drawn by default plan generation. "sor_brownout" is opt-in (it
# needs an attached SoR and would perturb existing seeded plans), as are
# "resize" (drives an online grow/shrink) and "crash_task" (crashes a
# backend by task name — reaches resize joiners that have no shard index
# in the authoritative layout).
DEFAULT_KINDS = ("crash", "partition", "heal", "gray", "antagonist",
                 "nothing")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    at: float                 # simulated seconds from injector start
    kind: str     # crash|partition|heal|heal_all|gray|antagonist|sor_brownout
    args: dict = field(default_factory=dict)
    duration: float = 0.0     # for self-clearing faults (gray, antagonist)

    def describe(self) -> str:
        parts = [f"t={self.at:.3f}s", self.kind]
        parts.extend(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in sorted(self.args.items()))
        if self.duration:
            parts.append(f"for={self.duration:.3g}s")
        return " ".join(parts)


class FaultPlan:
    """An ordered schedule of :class:`FaultEvent`."""

    def __init__(self, events: Optional[Sequence[FaultEvent]] = None):
        self._events: List[FaultEvent] = list(events or [])

    def add(self, at: float, kind: str, duration: float = 0.0,
            **args) -> "FaultPlan":
        self._events.append(FaultEvent(at=at, kind=kind, args=dict(args),
                                       duration=duration))
        return self

    @property
    def events(self) -> List[FaultEvent]:
        """Events in firing order (stable for equal times)."""
        return sorted(self._events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self._events)

    def schedule_lines(self) -> List[str]:
        return [event.describe() for event in self.events]

    # ------------------------------------------------------------------

    @classmethod
    def generate(cls, stream: RandomStream, duration: float,
                 num_shards: int, num_clients: int = 1,
                 mean_interval: float = 0.15,
                 kinds: Sequence[str] = DEFAULT_KINDS) -> "FaultPlan":
        """Draw a random plan; identical streams yield identical plans.

        ``"nothing"`` entries in ``kinds`` act as pacing: the slot is
        drawn but no event is scheduled. The plan always ends with a
        ``heal_all`` at ``duration`` so the system can converge.
        """
        plan = cls()
        t = 0.0
        while True:
            t += stream.uniform(0.5 * mean_interval, 1.5 * mean_interval)
            if t >= duration:
                break
            kind = stream.choice(list(kinds))
            if kind == "crash":
                plan.add(t, "crash",
                         shard=stream.randint(0, num_shards - 1),
                         restart_delay=stream.uniform(0.05, 0.2))
            elif kind == "partition":
                plan.add(t, "partition",
                         client=stream.randint(0, max(0, num_clients - 1)),
                         shard=stream.randint(0, num_shards - 1))
            elif kind == "heal":
                plan.add(t, "heal")
            elif kind == "gray":
                mode = stream.choice(["loss", "corrupt", "slow"])
                args = {"shard": stream.randint(0, num_shards - 1)}
                if mode == "loss":
                    args["loss_probability"] = stream.uniform(0.05, 0.4)
                elif mode == "corrupt":
                    args["corrupt_probability"] = stream.uniform(0.05, 0.4)
                else:
                    args["latency_multiplier"] = stream.uniform(2.0, 8.0)
                plan.add(t, "gray", duration=stream.uniform(0.1, 0.3),
                         **args)
            elif kind == "antagonist":
                plan.add(t, "antagonist",
                         shard=stream.randint(0, num_shards - 1),
                         fraction=stream.uniform(0.3, 0.9),
                         duration=stream.uniform(0.03, 0.1))
            elif kind == "sor_brownout":
                plan.add(t, "sor_brownout",
                         factor=stream.uniform(0.05, 0.3),
                         duration=stream.uniform(0.1, 0.4))
            elif kind == "nothing":
                continue
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        plan.add(duration, "heal_all")
        return plan


class FaultInjector:
    """Replays a :class:`FaultPlan` against a live cell.

    ``client_hosts`` are the hosts eligible to be a partition's client
    side (events carry a ``client`` index into this list). Crashes run
    in the background (so a long restart does not delay later events)
    and are skipped when the target backend is already down.
    """

    def __init__(self, cell, plan: FaultPlan,
                 client_hosts: Optional[Sequence[Host]] = None):
        self.cell = cell
        self.sim = cell.sim
        self.plan = plan
        self.client_hosts = list(client_hosts or [])
        self.injected: List[Tuple[float, FaultEvent, str]] = []
        self._partitions: List[Tuple[Host, Host]] = []
        self._antagonists: List = []
        self._m_injected = cell.metrics.counter(
            "cliquemap_faults_injected_total",
            "Fault-plan events by kind and outcome (fired/skipped)")

    # -- lifecycle ----------------------------------------------------------

    def start(self):
        """Run the plan as a background (defused) process."""
        proc = self.sim.process(self.run(), name="fault-injector")
        proc.defused = True
        return proc

    def run(self) -> Generator:
        """Drive the plan to completion, then heal everything."""
        started = self.sim.now
        try:
            for event in self.plan.events:
                delay = started + event.at - self.sim.now
                if delay > 0:
                    yield self.sim.delay(delay)
                self._apply(event)
        finally:
            self.finish()

    def finish(self) -> None:
        """Heal partitions, clear gray faults, stop antagonists."""
        self.cell.fabric.heal_all()
        self.cell.fabric.clear_faults()
        self._partitions.clear()
        for proc in self._antagonists:
            proc.interrupt()  # no-op if already stopped
        self._antagonists.clear()

    # -- event application ---------------------------------------------------

    def _record(self, event: FaultEvent, outcome: str) -> None:
        self.injected.append((self.sim.now, event, outcome))
        self._m_injected.labels(kind=event.kind, outcome=outcome).inc()
        span = self.cell.tracer.start(f"fault.{event.kind}",
                                      outcome=outcome, **event.args)
        span.finish()
        self.cell.tracer.record(span)
        if self.cell.flight:
            self.cell.flight.record("fault", origin="fault-injector",
                                    fault=event.kind, outcome=outcome,
                                    **event.args)

    def _backend_host(self, shard: int) -> Host:
        task = self.cell.task_for_shard(shard)
        return self.cell.backend_by_task(task).host

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "crash":
            shard = event.args["shard"]
            task = self.cell.task_for_shard(shard)
            if not self.cell.backend_by_task(task).alive:
                self._record(event, "skipped")
                return
            proc = self.sim.process(
                self.cell.maintenance.unplanned_crash(
                    shard, restart_delay=event.args.get("restart_delay")),
                name=f"fault-crash:{task}")
            proc.defused = True
        elif kind == "partition":
            if not self.client_hosts:
                self._record(event, "skipped")
                return
            client = self.client_hosts[event.args["client"] %
                                       len(self.client_hosts)]
            backend = self._backend_host(event.args["shard"])
            self.cell.fabric.partition(client, backend)
            self._partitions.append((client, backend))
        elif kind == "heal":
            if not self._partitions:
                self._record(event, "skipped")
                return
            a, b = self._partitions.pop()
            self.cell.fabric.heal(a, b)
        elif kind == "heal_all":
            self.cell.fabric.heal_all()
            self.cell.fabric.clear_faults()
            self._partitions.clear()
            sor = getattr(self.cell, "sor", None)
            if sor is not None and getattr(sor, "browned_out", False):
                sor.restore()
        elif kind == "gray":
            fault = LinkFault(
                loss_probability=event.args.get("loss_probability", 0.0),
                corrupt_probability=event.args.get("corrupt_probability",
                                                   0.0),
                latency_multiplier=event.args.get("latency_multiplier",
                                                  1.0))
            host = self._backend_host(event.args["shard"])
            fabric = self.cell.fabric
            fabric.degrade_host(host, fault)
            if event.duration > 0:
                def clear(host=host, fault=fault):
                    # A later gray on the same host supersedes this one;
                    # only clear the fault this event installed.
                    if fabric.host_fault(host) is fault:
                        fabric.clear_host_fault(host)
                self.sim.call_in(event.duration, clear)
        elif kind == "antagonist":
            host = self._backend_host(event.args["shard"])
            rate = event.args["fraction"] * \
                self.cell.fabric.config.host_rate_bytes_per_sec
            proc = self.cell.fabric.start_antagonist(host, rate)
            self._antagonists.append(proc)
            if event.duration > 0:
                self.sim.call_in(event.duration, proc.interrupt)
        elif kind == "sor_brownout":
            # Degrade the attached system of record's provisioned
            # capacity (self-restoring after event.duration).
            sor = getattr(self.cell, "sor", None)
            if sor is None:
                self._record(event, "skipped")
                return
            sor.brownout(event.args.get("factor", 0.1),
                         duration=event.duration)
        elif kind == "resize":
            # Online grow/shrink under whatever else the plan is doing.
            # Skipped (and recorded as such) while another topology
            # change is in flight, or when a shrink would take the cell
            # below its replication factor.
            action = event.args.get("action", "grow")
            count = event.args.get("count", 1)
            if self.cell.resize.active or self.cell.topology_lock.count:
                self._record(event, "skipped")
                return
            current = self.cell.config_store.peek(self.cell.spec.name)
            if action == "shrink" and \
                    len(current.shard_tasks) - count < \
                    current.mode.replicas:
                self._record(event, "skipped")
                return
            gen = self.cell.grow(count) if action == "grow" \
                else self.cell.shrink(count=count)
            proc = self.sim.process(gen, name=f"fault-resize:{action}")
            proc.defused = True
        elif kind == "crash_task":
            # Crash a backend by task name: reaches tasks with no shard
            # index in the authoritative layout (resize joiners).
            task = event.args["task"]
            backend = self.cell.backends.get(task)
            if backend is None or not backend.alive:
                self._record(event, "skipped")
                return
            proc = self.sim.process(
                self.cell.maintenance.unplanned_crash_task(
                    task, restart_delay=event.args.get("restart_delay")),
                name=f"fault-crash:{task}")
            proc.defused = True
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        self._record(event, "fired")
