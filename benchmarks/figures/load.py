"""The system under load: maintenance events, the Pony Express and
1RMA ramps, GET/SET mixes and the value-size sweep."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from figures.drivers import (Row, big_value_backend, build_cell, mixed_loop,
                             ramp_step, summary, timeline)

from repro.analysis import LatencyRecorder, render_table
from repro.core import (Cell, CellSpec, GetStrategy, MaintenanceConfig,
                        RepairConfig, ReplicationMode)
from repro.net import CStateModel, Fabric, FabricConfig, HostConfig
from repro.sim import RandomStream, Simulator
from repro.testing import (TIMELINE_BIN, TIMELINE_EVENT_AT, TIMELINE_KEYS,
                           maintenance_timeline, preload_keys)
from repro.transport import PonyCostModel, PonyScaleConfig, PonyTransport

CRASH_AT = TIMELINE_EVENT_AT
RESTART_DELAY = 1.0


def fig13():
    cell = build_cell(num_spares=1, maintenance_config=MaintenanceConfig(
        restart_delay=0.8))
    # Touch reporting is off in the timeline's clients, so the RPC byte
    # series isolates migration traffic, as in the paper's chart.
    latency, rpc_rate, _reads, counts = maintenance_timeline(
        cell, lambda: cell.maintenance.planned_restart(0))
    return "\n\n".join([
        timeline("Fig 13: planned maintenance — latency (us) & RPC bytes/s",
                 latency, (50, 99.9), ("RPC B/s", rpc_rate.per_second())),
        summary("Fig 13 summary", [
            ["GETs", counts["total"]],
            ["degraded ops", counts["degraded"]],
            ["degraded fraction",
             f"{counts['degraded'] / max(1, counts['total']):.5f}"],
            ["entries migrated", cell.maintenance.stats.entries_migrated]]),
    ]), (cell, latency, rpc_rate, counts["degraded"], counts["total"])


def fig13_claim(cell, latency, rpc_rate, degraded, total):
    # Fewer than 1 op in 1000 sees degraded performance.
    assert degraded / max(1, total) < 1e-3
    # Data made two hops: out to the spare and back.
    assert cell.maintenance.stats.entries_migrated >= 2 * TIMELINE_KEYS
    # RPC bytes show distinct bursts (migration out, migration back),
    # well above the steady-state background.
    series = rpc_rate.per_second()
    peak = max(v for _t, v in series)
    background = sorted(v for _t, v in series)[len(series) // 2]
    assert peak > 3 * max(background, 1.0)
    bursts = [t for t, v in series if v > 3 * max(background, 1.0)]
    assert bursts[-1] - bursts[0] > TIMELINE_BIN     # not adjacent bins
    # A byte counter only grows, across restarts too.
    assert min(v for _t, v in series) >= 0
    # Median latency stays flat through the event.
    medians = [v for _t, v in latency.series(50)]
    assert max(medians) < 3 * min(medians)


def fig14():
    cell = build_cell(
        repair_config=RepairConfig(enabled=True, scan_interval=60.0),
        maintenance_config=MaintenanceConfig())
    latency, rpc_rate, reads_per_bin, counts = maintenance_timeline(
        cell, lambda: cell.maintenance.unplanned_crash(
            0, restart_delay=RESTART_DELAY))
    restored_keys = cell.backend_by_task(
        cell.task_for_shard(0)).resident_keys
    return "\n\n".join([
        timeline("Fig 14: unplanned crash — latency (us) & RPC bytes/s",
                 latency, (50, 99.9), ("RPC B/s", rpc_rate.per_second()),
                 ("RMA reads/s", reads_per_bin.per_second())),
        summary("Fig 14 summary", [
            ["GETs", counts["total"]], ["failed GETs", counts["bad"]],
            ["restored resident keys", restored_keys],
            ["keys recovered by repair",
             sum(s.stats.keys_recovered for s in cell.scanners.values())]]),
    ]), (latency, rpc_rate, reads_per_bin, counts["bad"], restored_keys)


def fig14_claim(latency, rpc_rate, reads_per_bin, bad, restored_keys):
    # No client-visible misses: quorum masks the failure, repairs restore.
    assert bad == 0
    # The restarted backend was repopulated by repairs.
    assert restored_keys == TIMELINE_KEYS
    # A repair RPC burst is visible after the restart.
    series = dict(rpc_rate.per_second())
    burst_bins = [v for t, v in series.items()
                  if t > CRASH_AT + RESTART_DELAY - TIMELINE_BIN]
    quiet_bins = [v for t, v in series.items() if t < CRASH_AT]
    assert max(burst_bins) > 3 * max(max(quiet_bins), 1.0)
    # While degraded, clients send fewer RMA reads per op (2-of-3).
    reads = dict(reads_per_bin.per_second())
    degraded_rate = min(v for t, v in reads.items()
                        if CRASH_AT < t < CRASH_AT + RESTART_DELAY)
    healthy_rate = max(v for t, v in reads.items() if t < CRASH_AT)
    assert degraded_rate < healthy_rate
    # A 2xR GET reads three indexes and one data copy; with one replica
    # down it reads two indexes and the data.
    gets = dict(latency.counts())
    for t, rate in reads.items():
        per_get = rate * TIMELINE_BIN / gets[t]
        if t < CRASH_AT:
            assert abs(per_get - 4) <= 0.05 * 4, (t, per_get)
        elif t < CRASH_AT + RESTART_DELAY:
            assert abs(per_get - 3) <= 0.05 * 3, (t, per_get)


def mean_peak_engines(groups, start, end):
    """The mean over ``groups`` of the most engines each ran in
    ``[start, end]``."""
    return sum(max([g.engines_at(start)] + [
        cap for at, cap in g.scale_history if start <= at <= end])
        for g in groups) / len(groups)


def fig15():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    # Engine costs are scaled up (a deliberately slow software NIC), so
    # scale-out shows at simulation-friendly op rates.
    transport = PonyTransport(sim, fabric, cost_model=PonyCostModel(
        client_tx=2.2e-6, client_rx=2.6e-6, server_read=2.8e-6,
        scar_scan=0.8e-6, per_kilobyte=0.05e-6), scale=PonyScaleConfig(
        sample_interval=1e-3, scale_up_threshold=0.45,
        scale_down_threshold=0.15))
    cell = Cell(CellSpec(mode=ReplicationMode.R1, num_shards=4,
                         transport="pony", backend_config=big_value_backend()),
                sim=sim, fabric=fabric, transport=transport)
    # One client shares each backend's host; four more have hosts alone.
    shared = [cell.backend_by_task(cell.task_for_shard(s)).host
              for s in range(4)]
    clients = [cell.connect_client(host=host, strategy=GetStrategy.SCAR)
               for host in shared + [None] * 4]
    keys = [b"obj-%d" % i for i in range(64)]
    preload_keys(cell, clients[0], keys, 4096)
    groups = [[transport.engine_group(host) for host in shared],
              [transport.engine_group(c.host) for c in clients[4:]]]
    # Every client records GET latency into the cell's shared registry;
    # per-step percentiles are deltas against a sample-count checkpoint
    # taken at the start of the step (Histogram.percentile(p, start=...)).
    latency = cell.metrics.histogram("cliquemap_op_latency_seconds").labels(
        op="get", strategy=GetStrategy.SCAR.value)

    def fire(client, key):  # open loop: the GET runs on without the client
        sim.process(client.get(key)).defused = True
        yield from ()

    stream = RandomStream(99, "ramp")
    rows = []
    for step, rate in enumerate([4000.0, 12000.0, 30000.0, 60000.0,
                                 120000.0]):
        checkpoint, step_start = latency.count, sim.now
        ramp_step(sim, clients, keys, stream, step, rate, 25e-3, fire)
        rows.append([f"{rate * len(clients):,.0f}"] + [
            latency.percentile(p, start=checkpoint) * 1e6
            for p in (50, 90, 99)] + [
            f"{mean_peak_engines(g, step_start, sim.now):.2f}"
            for g in groups])
    return render_table(
        "Fig 15: Pony Express load ramp",
        ["offered GET/s", "50p (us)", "90p (us)", "99p (us)",
         "engines/co-tenant host", "engines/client-only host"],
        rows), (rows,)


def fig15_claim(rows):
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


def fig16_17():
    # Fig 16: the NIC command executor's timestamps (fabric + remote
    # PCIe); Fig 17: end-to-end GET latency.
    cell = build_cell(ReplicationMode.R1, 4, "1rma")
    # Clients run on hosts with C-states enabled: the idle-wakeup penalty
    # is what produces Fig 17's low-load latency bump.
    host_config = HostConfig(
        cores=4, c_state=CStateModel(enabled=True, idle_threshold=150e-6))
    clients = [cell.connect_client(host_config=host_config,
                                   strategy=GetStrategy.TWO_R)
               for _ in range(4)]
    keys = [b"obj-%d" % i for i in range(32)]
    preload_keys(cell, clients[0], keys, 4096)
    stamps = cell.transport.command_timestamps
    stream = RandomStream(5, "1rma-ramp")
    rows = []
    for step, rate in enumerate([300.0, 1500.0, 6000.0, 20000.0, 50000.0]):
        recorder = LatencyRecorder()
        nic_before = len(stamps)

        def get(client, key):
            result = yield from client.get(key)
            if result.hit:
                recorder.record(result.latency)

        ramp_step(cell.sim, clients, keys, stream, step, rate, 40e-3, get)
        nic = sorted(lat for _t, lat in stamps[nic_before:])
        rows.append([f"{rate * len(clients):,.0f}"] + [
            (nic[int(len(nic) * q)] if nic else 0.0) * 1e6
            for q in (0.5, 0.99)] + [
            recorder.percentile(p) * 1e6 for p in (50, 99)])
    return render_table(
        "Fig 16/17: 1RMA load ramp",
        ["offered GET/s", "fabric+PCIe 50p (us)", "fabric+PCIe 99p (us)",
         "GET 50p (us)", "GET 99p (us)"], rows), (rows,)


def fig16_17_claim(rows):
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


MIXES = [0.05, 0.50, 0.95]  # fraction of ops that are GETs


def fig18_19_mix(get_fraction: float):
    cell = build_cell(big_values=True)
    clients = [cell.connect_client(strategy=GetStrategy.TWO_R)
               for _ in range(4)]
    sim = cell.sim
    keys = [b"obj-%d" % i for i in range(64)]
    preload_keys(cell, clients[0], keys, 4096)
    get_latency, set_latency = LatencyRecorder(), LatencyRecorder()
    stream = RandomStream(21, f"mix-{get_fraction}")

    def pony():
        return sum(b.host.ledger.seconds("pony")
                   for b in cell.serving_backends())

    backend_cpu_before, pony_before = cell.total_backend_cpu_seconds(), pony()
    start = sim.now

    def worker(client, worker_stream):
        yield from mixed_loop(
            sim, client, 3000 // len(clients),
            lambda _i: keys[worker_stream.randint(0, 63)], worker_stream,
            get_fraction, bytes(4096), 20e-6, get_latency, set_latency)

    sim.run(until=sim.all_of([sim.process(worker(c, stream.child(str(i))))
                              for i, c in enumerate(clients)]))
    backend_cpu = (cell.total_backend_cpu_seconds() - backend_cpu_before +
                   pony() - pony_before)
    # CPU*s per second of wall time (Fig 19's y axis).
    return get_latency, set_latency, backend_cpu / (sim.now - start)


def fig18_19():
    results = {mix: fig18_19_mix(mix) for mix in MIXES}
    rows = [[f"{mix * 100:.0f}% GETs"] + [
        lat.percentile(p) * 1e6 if lat.count else float("nan")
        for lat in (get_lat, set_lat) for p in (50, 99)] + [
        f"{cpu_rate * 1e3:.2f}"]
        for mix, (get_lat, set_lat, cpu_rate) in results.items()]
    return render_table(
        "Fig 18/19: latency (us) and backend CPU under GET/SET mixes",
        ["mix", "GET 50p", "GET 99p", "SET 50p", "SET 99p",
         "backend CPU-ms/s"], rows), (results,)


def fig18_19_claim(results):
    cpu = {mix: r[2] for mix, r in results.items()}
    get50 = {mix: r[0].percentile(50) for mix, r in results.items()}
    set50 = {mix: r[1].percentile(50) for mix, r in results.items()}
    # Fig 19: more SETs -> more backend CPU (RPC framework + mutation).
    assert cpu[0.05] > cpu[0.50] > cpu[0.95]
    assert cpu[0.05] > 2 * cpu[0.95]
    # Fig 18: SETs are far slower than GETs at every mix.
    for mix in MIXES:
        assert set50[mix] > 1.5 * get50[mix]


SIZES = [32, 256, 2048, 16384]


def fig20_size(value_bytes: int):
    cell = build_cell(big_values=True)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    keys = [b"obj-%d" % i for i in range(32)]
    preload_keys(cell, client, keys, value_bytes)
    get_latency, set_latency = LatencyRecorder(), LatencyRecorder()
    stream = RandomStream(31, f"size-{value_bytes}")
    cell.sim.run(until=cell.sim.process(mixed_loop(
        cell.sim, client, 600, lambda i: keys[i % 32], stream, 0.9,
        bytes(value_bytes), 50e-6, get_latency, set_latency)))
    return get_latency, set_latency


def fig20():
    results = {size: fig20_size(size) for size in SIZES}
    rows = [[size] + [lat.percentile(p) * 1e6 for lat in lats
                      for p in (50, 99)] for size, lats in results.items()]
    return render_table(
        "Fig 20: latency (us) vs value size",
        ["value size (B)", "GET 50p", "GET 99p", "SET 50p", "SET 99p"],
        rows), (results,)


def fig20_claim(results):
    get50 = {size: r[0].percentile(50) for size, r in results.items()}
    set50 = {size: r[1].percentile(50) for size, r in results.items()}
    # Fixed costs dominate for production-typical (small) sizes: 32B and
    # 2KB GETs are within ~50% of each other.
    assert get50[2048] < 1.5 * get50[32]
    # Per-byte costs only emerge at the largest size.
    assert get50[16384] > get50[32]
    # SETs are uniformly slower than GETs (RPC vs RMA).
    for size in SIZES:
        assert set50[size] > get50[size]
    # Nominal lookup latencies across the whole sweep (tens of us).
    assert all(v < 500e-6 for v in get50.values())


ROWS = [
    Row("fig13", "Fig 13 — planned maintenance", fig13, fig13_claim),
    Row("fig14", "Fig 14 — crash + repairs", fig14, fig14_claim),
    Row("fig15", "Fig 15 — Pony Express ramp", fig15, fig15_claim),
    Row("fig16_17", "Fig 16/17 — 1RMA ramp", fig16_17, fig16_17_claim),
    Row("fig18_19", "Fig 18/19 — GET/SET mixes", fig18_19, fig18_19_claim),
    Row("fig20", "Fig 20 — value-size sweep", fig20, fig20_claim),
]
