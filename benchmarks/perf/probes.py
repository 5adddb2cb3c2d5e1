"""Single-layer micro-probes on a bare simulator.

Each probe times calls into one layer's public functions with nothing
else running, best of :data:`REPEATS` (the minimum is the least
noise-polluted sample, as ``run_kernel_stress`` already argues). They
put a number, per layer, on the gap between the kernel microbenchmark
and what a full-stack run achieves per event.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.analysis.perf import run_kernel_stress
from repro.core.index import IndexRegion, parse_bucket
from repro.net import Fabric
from repro.rpc import Principal, RpcChannel, RpcServer
from repro.sim import Resource, Simulator
from repro.telemetry import MetricsRegistry, Tracer
from repro.transport import OneRmaTransport, PonyTransport
from repro.transport.memory import Arena, MemoryRegion

REPEATS = 3
CALLS = 5000


def _best_ns_per_call(run: Callable[[], float], calls: int = CALLS) -> float:
    """``run`` does ``calls`` calls and returns the CPU seconds they took."""
    return min(run() for _ in range(REPEATS)) / calls * 1e9


def _timed_process(sim: Simulator, gen) -> float:
    start = time.process_time()
    sim.run(until=sim.process(gen))
    return time.process_time() - start


def probe_events_per_s() -> float:
    return run_kernel_stress(Simulator, scale=2.0,
                             repeats=REPEATS)["events_per_sec"]


def probe_ns_per_grant() -> float:
    def run():
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def loop():
            for _ in range(CALLS):
                request = resource.request()
                yield request
                resource.release(request)

        return _timed_process(sim, loop())

    return _best_ns_per_call(run)


def probe_ns_per_deliver() -> float:
    def run():
        sim = Simulator()
        fabric = Fabric(sim)
        a, b = fabric.add_host("a"), fabric.add_host("b")

        def loop():
            for _ in range(CALLS):
                yield from fabric.deliver(a, b, 256)

        return _timed_process(sim, loop())

    return _best_ns_per_call(run)


def _probe_ns_per_read(transport_cls) -> float:
    def run():
        sim = Simulator()
        fabric = Fabric(sim)
        client, server = fabric.add_host("client"), fabric.add_host("server")
        transport = transport_cls(sim, fabric)
        transport.attach(client)
        region = transport.attach(server).expose(
            MemoryRegion(Arena(4096, 4096)))

        def loop():
            for _ in range(CALLS):
                yield from transport.read(client, "server",
                                          region.region_id, 0, 512)

        return _timed_process(sim, loop())

    return _best_ns_per_call(run)


def probe_ns_per_rpc_call() -> float:
    def run():
        sim = Simulator()
        fabric = Fabric(sim)
        client, server_host = fabric.add_host("client"), \
            fabric.add_host("server")
        server = RpcServer(sim, server_host, "echo")

        def echo(payload, _context):
            return payload
            yield  # pragma: no cover - makes this a generator handler

        server.register("Echo", echo)
        channel = RpcChannel(sim, fabric, client, server,
                             Principal("probe"))

        def loop():
            yield from channel.connect()
            for _ in range(CALLS):
                yield from channel.call("Echo", {"n": 1})

        return _timed_process(sim, loop())

    return _best_ns_per_call(run)


def probe_ns_per_index_find() -> float:
    index = IndexRegion(num_buckets=64, ways=7, config_id=1)
    hashes = [bytes([i]) * 16 for i in range(7)]
    from repro.core.version import VersionNumber
    for way, key_hash in enumerate(hashes):
        index.write_entry(0, way, key_hash, VersionNumber(1, 1, 1), 1,
                          64 * way, 64)
    raw = index.window.read(index.bucket_offset(0), index.bucket_bytes)
    wanted = hashes[-1]                   # last way: the full scan

    def run():
        start = time.process_time()
        for _ in range(CALLS):
            parse_bucket(raw, 7).find(wanted)
        return time.process_time() - start

    return _best_ns_per_call(run)


def probe_ns_per_counter_inc() -> float:
    series = MetricsRegistry().counter("probe_total", "probe").labels(op="x")

    def run():
        start = time.process_time()
        for _ in range(CALLS * 10):
            series.inc()
        return time.process_time() - start

    return _best_ns_per_call(run, CALLS * 10)


def probe_ns_per_span() -> float:
    def run():
        tracer = Tracer(clock=time.perf_counter, seed=1)
        start = time.process_time()
        for _ in range(CALLS):
            root = tracer.start("probe")
            root.child("leaf").finish()
            root.finish()
        return (time.process_time() - start) / 2    # two spans per round

    return _best_ns_per_call(run)


PROBES: Dict[str, Callable[[], float]] = {
    "sim.core.probe_events_per_s": probe_events_per_s,
    "sim.resources.probe_ns_per_grant": probe_ns_per_grant,
    "net.probe_ns_per_deliver": probe_ns_per_deliver,
    "transport.pony.probe_ns_per_read":
        lambda: _probe_ns_per_read(PonyTransport),
    "transport.onerma.probe_ns_per_read":
        lambda: _probe_ns_per_read(OneRmaTransport),
    "rpc.probe_ns_per_call": probe_ns_per_rpc_call,
    "core.index.probe_ns_per_find": probe_ns_per_index_find,
    "telemetry.probe_ns_per_counter_inc": probe_ns_per_counter_inc,
    "telemetry.probe_ns_per_span": probe_ns_per_span,
}


def run_probes() -> Dict[str, float]:
    return {name: probe() for name, probe in PROBES.items()}
