"""Sharded parallel simulation: conservative lookahead over shard kernels.

The kernel retires ~1.3M events/sec on one core (BENCH_kernel.json); a
federation of N datacenters therefore tops out at 1/N of that per zone
when the whole world shares one event loop. This module splits the world
into *shards* — one :class:`~repro.sim.Simulator` per zone, each in its
own worker process — and keeps them causally consistent with the classic
conservative parallel-discrete-event recipe (DRackSim-style, see
PAPERS.md): every cross-shard interaction rides a link with a declared
minimum latency ``L`` (the *lookahead*), so a shard whose neighbours
have all reached lower-bound timestamp ``E`` can safely run ahead to
``E + L`` without ever receiving a message in its past.

The synchronization protocol (window-barrier variant):

1. every shard sits at the same barrier time ``H``;
2. the coordinator gathers each shard's lower-bound timestamp
   (:meth:`Simulator.lower_bound`) plus the arrival times of routed but
   undelivered messages, and takes the global minimum ``E``;
3. the next barrier is ``H' = min(horizon, E + L)`` — when every shard
   is idle, ``E`` jumps ahead and whole idle stretches cost one round;
4. pending messages with ``arrival <= H'`` are delivered, sorted by
   ``(arrival, src_shard, seq)``, through :meth:`Simulator.inject` —
   the deterministic external-event path — and every shard runs
   ``run_until(H')``;
5. messages sent during the window have ``arrival >= send + L >= E + L
   = H'``, i.e. never in any shard's past: the conservative guarantee.

Because the coordinator's decisions depend only on values that are
bit-identical whether shards run in worker processes or sequentially in
one process, a parallel run is *digest-identical* to the same-seed
sequential run — the cross-process honesty check
:mod:`repro.analysis.parallel` builds on.

The engine is model-agnostic: anything implementing
:class:`ShardProgram` can be sharded. The CliqueMap federation binding
(one cell per zone, WAN RPCs as cross-shard messages) lives in
:mod:`repro.core.parallelfed`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .core import SimulationError, Simulator

#: How long the coordinator waits on a worker reply before declaring the
#: fleet wedged (wall-clock seconds; generous — windows are short).
_WORKER_TIMEOUT = 600.0


@dataclass(frozen=True)
class ShardMessage:
    """One cross-shard event in flight.

    ``arrival`` is absolute simulated time at the destination; ``seq``
    is the sender's monotonically increasing message number, which makes
    ``(arrival, src, seq)`` a deterministic total order for same-time
    deliveries.
    """

    arrival: float
    src: int
    dst: int
    seq: int
    kind: str
    payload: tuple = ()
    # Distributed-trace propagation: the sending span's cross-zone
    # reference — (trace_id, origin_zone, span_id) — or None when the
    # sender is untraced. Plain picklable primitives; carried verbatim,
    # never consulted by the window protocol, so tracing on/off cannot
    # change routing or ordering.
    trace: Optional[tuple] = None


class ShardProgram:
    """One shard's world: a kernel plus the model running on it.

    Subclasses build their simulator and model in :meth:`build` (called
    inside the worker process — everything reachable from the instance
    after ``__init__`` must be picklable, which is why programs are
    constructed from spec dataclasses), start their workload in
    :meth:`start`, and exchange :class:`ShardMessage` traffic through
    :meth:`receive` / the ``outbox`` list.
    """

    #: Assigned by the coordinator before build().
    index: int = 0

    def __init__(self):
        self.sim: Optional[Simulator] = None
        self.outbox: List[ShardMessage] = []
        self._msg_seq = 0

    # -- lifecycle (called by the executor) ------------------------------

    def build(self) -> None:
        """Construct the simulator and model (may advance the clock)."""
        raise NotImplementedError

    def start(self) -> None:
        """Start the workload; called once, at the aligned start time."""

    def receive(self, message: ShardMessage) -> None:
        """Deliver one inbound message (inject at ``message.arrival``)."""
        raise NotImplementedError

    def digest(self) -> Dict[str, Any]:
        """Final, picklable run summary (op digests, counters, ...)."""
        return {}

    # -- helpers ----------------------------------------------------------

    def send(self, dst: int, kind: str, payload: tuple,
             arrival: float, trace: Optional[tuple] = None) -> None:
        """Queue an outbound message; the coordinator routes it at the
        next barrier. ``arrival`` must respect the link's lookahead."""
        self._msg_seq += 1
        self.outbox.append(ShardMessage(
            arrival=arrival, src=self.index, dst=dst, seq=self._msg_seq,
            kind=kind, payload=payload, trace=trace))

    def drain_outbox(self) -> List[ShardMessage]:
        out, self.outbox = self.outbox, []
        return out

    def next_time(self) -> float:
        return self.sim.lower_bound()


# ---------------------------------------------------------------------------
# Executors: the same protocol over in-process shards or worker processes.
# Each shard step is written once; the sequential executor calls the steps
# in-process and a worker's command loop calls them on its one program.
# ---------------------------------------------------------------------------


def _build(factory: Callable, args: tuple, index: int) -> ShardProgram:
    program = factory(*args)
    program.index = index
    program.build()
    return program


def _start(program: ShardProgram, at: float
           ) -> Tuple[List[ShardMessage], float]:
    program.sim.run_until(at)
    program.start()
    return program.drain_outbox(), program.next_time()


def _window(program: ShardProgram, horizon: float,
            messages: List[ShardMessage]
            ) -> Tuple[List[ShardMessage], float, float]:
    """Deliver ``messages``, run to ``horizon``; also returns the CPU
    seconds the window took."""
    cpu0 = time.process_time()
    for message in messages:
        program.receive(message)
    program.sim.run_until(horizon)
    cpu = time.process_time() - cpu0
    return program.drain_outbox(), program.next_time(), cpu


def _finish(program: ShardProgram) -> Dict[str, Any]:
    summary = program.digest()
    summary["events"] = program.sim._seq
    summary["final_now"] = program.sim.now
    return summary


def _profiler(enabled: bool):
    """An enabled ``cProfile.Profile``, or None."""
    if not enabled:
        return None
    import cProfile
    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _dump(profiler, path: str) -> None:
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(path)


class _SequentialExecutor:
    """All shards in this process, run round-robin inside each window."""

    def __init__(self, builders: List[Tuple[Callable, tuple]],
                 profile_dir: Optional[str] = None):
        self._builders = builders
        self._profile_dir = profile_dir
        self._profiler = None
        self.programs: List[ShardProgram] = []

    def build_all(self) -> List[float]:
        self._profiler = _profiler(self._profile_dir is not None)
        self.programs = [_build(factory, args, index)
                         for index, (factory, args)
                         in enumerate(self._builders)]
        return [program.sim.now for program in self.programs]

    def start_all(self, at: float
                  ) -> List[Tuple[List[ShardMessage], float]]:
        return [_start(program, at) for program in self.programs]

    def window(self, horizon: float,
               deliveries: Dict[int, List[ShardMessage]]
               ) -> List[Tuple[List[ShardMessage], float, float]]:
        return [_window(program, horizon, deliveries.get(program.index, ()))
                for program in self.programs]

    def finish(self) -> List[Dict[str, Any]]:
        digests = [_finish(program) for program in self.programs]
        if self._profiler is not None:
            _dump(self._profiler,
                  os.path.join(self._profile_dir, "shard-all.prof"))
        return digests

    @property
    def leaked_children(self) -> bool:
        return False


def _shard_worker(conn, profile_path: Optional[str]) -> None:
    """Worker main: build a program from the spec sent over the pipe,
    then serve window commands until told to finish."""
    profiler = _profiler(profile_path is not None)
    program = None
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "build":
                program = _build(*command[1:])
                conn.send(("ok", program.sim.now))
            elif op == "start":
                conn.send(("ok", _start(program, command[1])))
            elif op == "window":
                conn.send(("ok", _window(program, *command[1:])))
            elif op == "finish":
                summary = _finish(program)
                _dump(profiler, profile_path)
                conn.send(("ok", summary))
                return
            else:
                raise SimulationError(f"unknown worker command {op!r}")
    except EOFError:
        return
    except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
        import traceback
        try:
            conn.send(("error", f"{exc!r}\n{traceback.format_exc()}"))
        except (BrokenPipeError, OSError):
            pass


class _ProcessExecutor:
    """One worker process per shard, command/reply over pipes.

    Specs and messages cross the pipes pickled even under the fork start
    method, so the pickle-safety of every config dataclass is exercised
    on every parallel run, not just under spawn.
    """

    def __init__(self, builders: List[Tuple[Callable, tuple]],
                 profile_dir: Optional[str] = None):
        self._builders = builders
        self._profile_dir = profile_dir
        self._pipes: list = []
        self._workers: list = []
        self.leaked_children = False

    def _rpc_all(self, commands) -> list:
        for conn, command in zip(self._pipes, commands):
            conn.send(command)
        replies = []
        for index, conn in enumerate(self._pipes):
            if not conn.poll(_WORKER_TIMEOUT):
                self._terminate()
                raise SimulationError(
                    f"shard worker {index} did not reply within "
                    f"{_WORKER_TIMEOUT:.0f}s")
            status, value = conn.recv()
            if status != "ok":
                self._terminate()
                raise SimulationError(
                    f"shard worker {index} failed:\n{value}")
            replies.append(value)
        return replies

    def build_all(self) -> List[float]:
        for index, (factory, args) in enumerate(self._builders):
            parent, child = multiprocessing.Pipe()
            profile_path = None
            if self._profile_dir is not None:
                profile_path = os.path.join(self._profile_dir,
                                            f"shard-{index}.prof")
            worker = multiprocessing.Process(
                target=_shard_worker, args=(child, profile_path),
                name=f"shard-{index}", daemon=True)
            worker.start()
            child.close()
            self._pipes.append(parent)
            self._workers.append(worker)
        return self._rpc_all([("build", factory, args, index)
                              for index, (factory, args)
                              in enumerate(self._builders)])

    def start_all(self, at: float
                  ) -> List[Tuple[List[ShardMessage], float]]:
        return self._rpc_all([("start", at)] * len(self._pipes))

    def window(self, horizon: float,
               deliveries: Dict[int, List[ShardMessage]]
               ) -> List[Tuple[List[ShardMessage], float, float]]:
        return self._rpc_all([("window", horizon, deliveries.get(i, []))
                              for i in range(len(self._pipes))])

    def finish(self) -> List[Dict[str, Any]]:
        digests = self._rpc_all([("finish",)] * len(self._pipes))
        for worker in self._workers:
            worker.join(timeout=30.0)
        self.leaked_children = any(w.is_alive() for w in self._workers)
        if self.leaked_children:
            self._terminate()
        for conn in self._pipes:
            conn.close()
        return digests

    def _terminate(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------


@dataclass
class ShardRunReport:
    """Everything one coordinated run produced."""

    mode: str                       # "sequential" | "parallel"
    digests: List[Dict[str, Any]]
    windows: int = 0
    start: float = 0.0
    horizon: float = 0.0
    events: int = 0
    wall_seconds: float = 0.0
    #: Coordinator-process CPU during the run (routing, barriers,
    #: pickling; in sequential mode this includes all shard work).
    coordinator_cpu_seconds: float = 0.0
    #: Per-shard CPU totals, measured inside each shard's process.
    shard_cpu_seconds: List[float] = field(default_factory=list)
    #: Sum over windows of the slowest shard's CPU in that window, plus
    #: the coordinator's own CPU: the run's critical path — the
    #: wall-clock a machine with one core per shard would need. On a
    #: single-core container (where workers time-slice) this is the
    #: honest parallel-capacity metric; on a many-core box it converges
    #: to measured wall time.
    critical_path_seconds: float = 0.0
    messages_routed: int = 0
    leaked_children: bool = False

    @property
    def events_per_critical_sec(self) -> float:
        if self.critical_path_seconds <= 0:
            return 0.0
        return self.events / self.critical_path_seconds


class ShardCoordinator:
    """Drives N :class:`ShardProgram` kernels under conservative sync.

    ``builders`` is a list of ``(factory, args)`` pairs — ``factory``
    must be a module-level callable and ``args`` picklable, because in
    parallel mode both cross the pipe into the worker. ``lookahead`` is
    the minimum cross-shard latency declared by the link adapter
    (:class:`~repro.net.CrossShardLink`); ``run_for`` is how much
    simulated time to run past the aligned start.
    """

    def __init__(self, builders: List[Tuple[Callable, tuple]],
                 lookahead: float, run_for: float,
                 profile_dir: Optional[str] = None):
        if lookahead <= 0:
            raise SimulationError(
                f"conservative sync needs lookahead > 0, got {lookahead!r}")
        if run_for <= 0:
            raise SimulationError(f"run_for must be > 0, got {run_for!r}")
        self.builders = builders
        self.lookahead = lookahead
        self.run_for = run_for
        self.profile_dir = profile_dir

    def run(self, parallel: bool) -> ShardRunReport:
        executor = (_ProcessExecutor if parallel else _SequentialExecutor)(
            self.builders, self.profile_dir)
        report = ShardRunReport(
            mode="parallel" if parallel else "sequential", digests=[])
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            build_nows = executor.build_all()
            # Align every shard to a common barrier before the workload
            # starts: build may advance clocks unevenly (client connects,
            # preloads), and the window protocol's safety argument needs
            # all shards level at each barrier.
            start = max(build_nows)
            horizon = start + self.run_for
            report.start, report.horizon = start, horizon

            num_shards = len(self.builders)
            shard_cpu = [0.0] * num_shards
            # Messages sent during start() must seed the pending set
            # before the first window's safe bound is computed — their
            # send time (== start) predates every shard's first event.
            pending: List[ShardMessage] = []
            next_times = []
            for outbox, next_time in executor.start_all(start):
                pending.extend(outbox)
                next_times.append(next_time)
            while True:
                lower = min(next_times) if next_times else float("inf")
                for message in pending:
                    if message.arrival < lower:
                        lower = message.arrival
                if lower > horizon:
                    # Nothing left inside the horizon: one final advance
                    # so every shard ends exactly at the horizon.
                    executor.window(horizon, {})
                    break
                next_h = min(horizon, lower + self.lookahead)
                deliveries: Dict[int, List[ShardMessage]] = {}
                held: List[ShardMessage] = []
                for message in pending:
                    if message.arrival <= next_h:
                        deliveries.setdefault(message.dst, []).append(
                            message)
                    else:
                        held.append(message)
                for batch in deliveries.values():
                    batch.sort(key=lambda m: (m.arrival, m.src, m.seq))
                    report.messages_routed += len(batch)
                results = executor.window(next_h, deliveries)
                pending = held
                next_times = []
                window_max_cpu = 0.0
                for index, (outbox, next_time, cpu) in enumerate(results):
                    pending.extend(outbox)
                    next_times.append(next_time)
                    shard_cpu[index] += cpu
                    if cpu > window_max_cpu:
                        window_max_cpu = cpu
                report.critical_path_seconds += window_max_cpu
                report.windows += 1

            report.digests = executor.finish()
            report.shard_cpu_seconds = shard_cpu
            report.events = sum(d["events"] for d in report.digests)
        finally:
            report.leaked_children = executor.leaked_children
            report.wall_seconds = time.perf_counter() - wall0
            report.coordinator_cpu_seconds = time.process_time() - cpu0
        # The coordinator is on the critical path too (routing and
        # barrier bookkeeping serialize against the fleet).
        report.critical_path_seconds += report.coordinator_cpu_seconds
        if not parallel:
            # Sequentially, everything ran in this process: the critical
            # path IS the coordinator's CPU.
            report.critical_path_seconds = report.coordinator_cpu_seconds
        return report


__all__ = ["ShardMessage", "ShardProgram", "ShardCoordinator",
           "ShardRunReport"]
