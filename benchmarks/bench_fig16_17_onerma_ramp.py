"""Figures 16 & 17: the 1RMA load ramp (§7.2.4).

1RMA's serving path is entirely hardware: no SCAR (every GET is 2xR, two
fabric RTTs), but no software bottleneck on the serving side either.
Two plots:

* Fig 16 — NIC command-executor timestamps (combined fabric + remote
  PCIe latency): rises only marginally with load, far from saturation.
* Fig 17 — end-to-end GET latency: dominated by CPU time in the
  CliqueMap client, *highest at the lowest load* because idle client
  cores fall into deep C-states, and flat (insensitive to load) once the
  ramp passes the C-state regime.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import preload_keys, run_once

from repro.analysis import LatencyRecorder, render_table
from repro.core import Cell, CellSpec, GetStrategy, ReplicationMode
from repro.net import CStateModel, HostConfig
from repro.sim import RandomStream

BACKENDS = 4
CLIENTS = 4
VALUE_BYTES = 4096
RATE_STEPS = [300.0, 1500.0, 6000.0, 20000.0, 50000.0]  # per client
STEP_SECONDS = 40e-3


def run_experiment():
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=BACKENDS,
                         transport="1rma"))
    sim = cell.sim
    # Clients run on hosts with C-states enabled: the idle-wakeup penalty
    # is what produces Fig 17's low-load latency bump.
    client_host_config = HostConfig(
        cores=4, c_state=CStateModel(enabled=True, idle_threshold=150e-6,
                                     wakeup_latency=40e-6))
    clients = [cell.connect_client(
        host_config=client_host_config,
        strategy=GetStrategy.TWO_R) for _ in range(CLIENTS)]
    keys = [b"obj-%d" % i for i in range(32)]

    preload_keys(cell, clients[0], keys, VALUE_BYTES)

    transport = cell.transport
    stream = RandomStream(5, "1rma-ramp")
    rows = []
    for step, rate in enumerate(RATE_STEPS):
        recorder = LatencyRecorder()
        nic_before = len(transport.command_timestamps)
        end = sim.now + STEP_SECONDS

        def load(client, arrivals):
            i = 0
            while sim.now < end:
                yield sim.timeout(arrivals.expovariate(rate))
                result = yield from client.get(keys[i % len(keys)])
                if result.hit:
                    recorder.record(result.latency)
                i += 1

        procs = [sim.process(load(c, stream.child(f"{step}-{j}")))
                 for j, c in enumerate(clients)]
        sim.run(until=sim.all_of(procs))
        nic_samples = sorted(
            lat for _t, lat in transport.command_timestamps[nic_before:])
        mid = nic_samples[len(nic_samples) // 2] if nic_samples else 0.0
        p99 = nic_samples[int(len(nic_samples) * 0.99)] if nic_samples else 0.0
        rows.append([f"{rate * CLIENTS:,.0f}",
                     mid * 1e6, p99 * 1e6,
                     recorder.percentile(50) * 1e6,
                     recorder.percentile(99) * 1e6])
    return rows


def bench_fig16_17_onerma_ramp(benchmark):
    rows = run_once(benchmark, run_experiment)
    print()
    print(render_table(
        "Fig 16/17: 1RMA load ramp",
        ["offered GET/s", "fabric+PCIe 50p (us)", "fabric+PCIe 99p (us)",
         "GET 50p (us)", "GET 99p (us)"], rows))

    nic50 = [r[1] for r in rows]
    get50 = [r[3] for r in rows]
    get99 = [r[4] for r in rows]
    # Fig 16: fabric+PCIe latency rises only marginally with load — far
    # short of saturating the hardware path.
    assert nic50[-1] < 2.0 * nic50[0]
    # Fig 17: the *highest* GET latency appears at the lowest load —
    # C-state wake-ups on idle client cores.
    assert get50[0] > 1.3 * get50[-1]
    assert get99[0] >= 0.95 * max(get99)
    assert get99[-1] < 0.6 * get99[0]
    # Once C-states are out of the picture, latency is insensitive to
    # load across more than an order of magnitude of offered rate.
    steady = get50[2:]
    assert max(steady) < 1.5 * min(steady)
