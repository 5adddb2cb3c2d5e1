"""Simulated hosts: CPU core pools, per-component CPU accounting, C-states.

A :class:`Host` owns a pool of cores. Any component that burns CPU (RPC
framework, CliqueMap client/backend code, Pony Express engines, language
shims) does so by yielding :meth:`Host.execute`, which charges the
cost to a named component in the host's :class:`CpuLedger`. The ledger is
what the CPU-efficiency figures (Fig 6b, Fig 7, Fig 19) read out.

The C-state model reproduces the power-saving effect the paper observes in
the 1RMA ramp (Fig 16/17): after a host has been idle longer than
``idle_threshold``, the next execution pays ``WAKEUP_LATENCY`` before doing
useful work, so the *lowest* offered load sees the *highest* latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..sim import Resource, Simulator


#: Cost to exit the deep C-state.
WAKEUP_LATENCY = 40e-6


@dataclass
class CStateModel:
    """Idle-state wake-up penalty model."""

    enabled: bool = False
    idle_threshold: float = 200e-6   # idle longer than this enters deep C-state


class CpuLedger:
    """Accumulates CPU-seconds per named component."""

    def __init__(self):
        self._seconds: Dict[str, float] = {}

    def charge(self, component: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative CPU time")
        self._seconds[component] = self._seconds.get(component, 0.0) + seconds

    def seconds(self, component: str) -> float:
        return self._seconds.get(component, 0.0)

    def total(self) -> float:
        return sum(self._seconds.values())

    def snapshot(self) -> Dict[str, float]:
        return dict(self._seconds)

    def components(self):
        return sorted(self._seconds)


@dataclass
class HostConfig:
    """Static host parameters."""

    cores: int = 8
    c_state: CStateModel = field(default_factory=CStateModel)


class Host:
    """One machine: cores + CPU ledger + a NIC attachment point."""

    def __init__(self, sim: Simulator, name: str,
                 config: Optional[HostConfig] = None):
        self.sim = sim
        self.name = name
        self.config = config or HostConfig()
        self.cores = Resource(sim, capacity=self.config.cores,
                              name=f"{name}.cores",
                              at_grant=self._core_granted)
        self.ledger = CpuLedger()
        self.nic = None  # attached by the fabric
        self.zone = "local"  # datacenter; reassigned by the fabric
        self._last_busy = sim.now
        self._alive = True

    # -- liveness (crash / restart modeling) --------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def crash(self) -> None:
        """Mark the host dead: future executes fail fast."""
        self._alive = False

    def restart(self) -> None:
        self._alive = True
        self._last_busy = self.sim.now

    # -- CPU execution -------------------------------------------------------

    def execute(self, cpu_seconds: float, component: str) -> Any:
        """Run ``cpu_seconds`` of work on some core, charging ``component``.

        ``yield host.execute(...)`` from a process (:meth:`Resource.hold`).
        Includes queueing for a free core and any C-state wake-up penalty;
        a host dead now, or when the core is granted, raises
        :class:`HostDownError`.
        """
        if not self._alive:
            raise HostDownError(self.name)
        return self.cores.hold(cpu_seconds, self._executed,
                               (component, cpu_seconds))

    def _core_granted(self, work: float) -> float:
        """Grant-time half of :meth:`execute`: liveness, wake-up penalty."""
        if not self._alive:
            raise HostDownError(self.name)
        cs = self.config.c_state
        if cs.enabled and self.cores.count == 0 and \
                self.sim.now - self._last_busy > cs.idle_threshold:
            return WAKEUP_LATENCY + work
        return work

    def _executed(self, component: str, work: float) -> None:
        """Completion-time half: the ledger charge and the busy stamp."""
        self.ledger.charge(component, work)
        self._last_busy = self.sim.now

    def charge_inline(self, cpu_seconds: float, component: str) -> None:
        """Account CPU time without modeling core contention.

        Used for costs already covered by another timing path (e.g. NIC
        engine service time) where only the ledger entry is needed.
        """
        self.ledger.charge(component, cpu_seconds)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, cores={self.config.cores})"


class HostDownError(Exception):
    """An operation touched a crashed host."""

    def __init__(self, host_name: str):
        super().__init__(f"host {host_name} is down")
        self.host_name = host_name
