"""Figure 15: Pony Express load ramp with engine scale-out (§7.2.4).

An R=1 cell using SCAR and 4KB values; offered load ramps up in steps
with no idle gaps (as in the paper's continuous ramp). Pony engines are
single-threaded and scale out to more cores in response to load. Hosts
running both a backend and clients (co-tenant) are busier and scale out
first; client-only hosts follow at higher load, and that client-side
scale-out tames tail latency even as the ramp continues.

Engine service costs are scaled up (a deliberately slow software NIC) so
the scale-out dynamics appear at simulation-friendly op rates; the
paper's 400M GET/s testbed behavior is shape-identical.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import preload_keys, run_once

from repro.analysis import render_table
from repro.core import (BackendConfig, Cell, CellSpec, GetStrategy,
                        ReplicationMode)
from repro.net import Fabric, FabricConfig
from repro.sim import RandomStream, Simulator
from repro.transport import PonyCostModel, PonyScaleConfig, PonyTransport

BACKENDS = 4
CO_TENANT_CLIENTS = 4       # one on each backend host
CLIENT_ONLY_CLIENTS = 4
VALUE_BYTES = 4096
RATE_STEPS = [4000.0, 12000.0, 30000.0, 60000.0, 120000.0]  # per client
STEP_SECONDS = 25e-3


def max_engines_during(group, start, end):
    """Peak engine count a group reached within a time window."""
    count = group.engines_at(start)
    peak = count
    for at, cap in group.scale_history:
        if start <= at <= end:
            peak = max(peak, cap)
    return peak


def run_experiment():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    transport = PonyTransport(
        sim, fabric,
        cost_model=PonyCostModel(client_tx=2.2e-6, client_rx=2.6e-6,
                                 server_read=2.8e-6, scar_scan=0.8e-6,
                                 per_kilobyte=0.05e-6),
        scale=PonyScaleConfig(sample_interval=1e-3,
                              scale_up_threshold=0.45,
                              scale_down_threshold=0.15))
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=BACKENDS,
                         transport="pony",
                         backend_config=BackendConfig(
                             data_initial_bytes=4 << 20,
                             data_virtual_limit=64 << 20)),
                sim=sim, fabric=fabric, transport=transport)

    clients = []
    for shard in range(CO_TENANT_CLIENTS):
        backend = cell.backend_by_task(cell.task_for_shard(shard))
        clients.append(cell.connect_client(host=backend.host,
                                           strategy=GetStrategy.SCAR))
    for _ in range(CLIENT_ONLY_CLIENTS):
        clients.append(cell.connect_client(strategy=GetStrategy.SCAR))

    keys = [b"obj-%d" % i for i in range(64)]

    preload_keys(cell, clients[0], keys, VALUE_BYTES)

    co_tenant_groups = [
        transport.engine_group(
            cell.backend_by_task(cell.task_for_shard(s)).host)
        for s in range(BACKENDS)]
    client_only_groups = [transport.engine_group(c.host)
                          for c in clients[CO_TENANT_CLIENTS:]]

    # Every client records GET latency into the cell's shared registry;
    # per-step percentiles are deltas against a sample-count checkpoint
    # taken at the start of the step (Histogram.percentile(p, start=...)).
    latency = cell.metrics.histogram("cliquemap_op_latency_seconds").labels(
        op="get", strategy=GetStrategy.SCAR.value)

    stream = RandomStream(99, "ramp")
    rows = []
    for step, rate in enumerate(RATE_STEPS):
        checkpoint = latency.count
        step_start = sim.now
        end = step_start + STEP_SECONDS

        def load(client, arrivals):
            i = 0
            while sim.now < end:
                yield sim.timeout(arrivals.expovariate(rate))
                proc = sim.process(client.get(keys[i % len(keys)]))
                proc.defused = True
                i += 1

        procs = [sim.process(load(c, stream.child(f"{step}-{j}")))
                 for j, c in enumerate(clients)]
        sim.run(until=sim.all_of(procs))
        co = sum(max_engines_during(g, step_start, sim.now)
                 for g in co_tenant_groups) / len(co_tenant_groups)
        client_only = sum(max_engines_during(g, step_start, sim.now)
                          for g in client_only_groups) / len(client_only_groups)
        rows.append([
            f"{rate * len(clients):,.0f}",
            latency.percentile(50, start=checkpoint) * 1e6,
            latency.percentile(90, start=checkpoint) * 1e6,
            latency.percentile(99, start=checkpoint) * 1e6,
            f"{co:.2f}",
            f"{client_only:.2f}",
        ])
    return rows


def bench_fig15_pony_express_ramp(benchmark):
    rows = run_once(benchmark, run_experiment)
    print()
    print(render_table(
        "Fig 15: Pony Express load ramp",
        ["offered GET/s", "50p (us)", "90p (us)", "99p (us)",
         "engines/co-tenant host", "engines/client-only host"], rows))

    co = [float(r[4]) for r in rows]
    client_only = [float(r[5]) for r in rows]
    p99 = [r[3] for r in rows]
    p50 = [r[1] for r in rows]
    # Co-tenant hosts (backend + client on one host) scale out first:
    # strictly more engines than client-only hosts mid-ramp.
    assert co[3] > client_only[3]
    # By the top of the ramp both classes have scaled out.
    assert co[-1] >= 2.0
    assert client_only[-1] >= 1.5
    # Scale-out keeps p99 from being worst at peak load: the tail maximum
    # happens mid-ramp (during a scale-out transient), not at the top.
    assert p99[-1] < max(p99)
    # Significant capacity headroom: median stays bounded at peak.
    assert p50[-1] < 10 * p50[0]
