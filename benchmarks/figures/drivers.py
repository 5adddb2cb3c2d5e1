"""What the figure rows share. A loop's processes and yields are part
of every number a row prints: one more or one fewer moves the events."""

from collections import namedtuple

from repro.analysis import render_percentile_lines, render_table
from repro.core import (BackendConfig, Cell, CellSpec, GetStrategy,
                        ReplicationMode)
from repro.testing import key_with_primary_shard, measure_gets, preload_keys

#: One figure: its id, what it reproduces, ``build() -> (text, facts)``
#: (the text it prints, which is also the body of its EXPERIMENTS.md
#: block) and ``claim(*facts)``, the paper's shape as asserts.
Row = namedtuple("Row", "id reproduces build claim")


def build_cell(mode=ReplicationMode.R3_2, shards=3, transport="pony",
               big_values=False, **spec) -> Cell:
    if big_values:
        spec["backend_config"] = big_value_backend()
    return Cell(CellSpec(mode=mode, num_shards=shards, transport=transport,
                         **spec))


def big_value_backend() -> BackendConfig:
    """A 4 MiB data arena per backend, growing to 64 MiB."""
    return BackendConfig(data_initial_bytes=4 << 20,
                         data_virtual_limit=64 << 20)


def timeline(title, latency, percentiles, *series) -> str:
    """Per time bin: ``latency``'s percentiles in us, then ``series``."""
    return render_percentile_lines(
        title, [(f"{p}p", [(t, v * 1e6) for t, v in latency.series(p)])
                for p in percentiles] + list(series), x_label="t (s)")


def summary(title, rows) -> str:
    return render_table(title, ["metric", "value"], rows)


def loaded_primary_gets(ops, loaded=True, mode=ReplicationMode.R3_2,
                        client_config=None):
    """(p50, p99) of ``ops`` 2xR GETs of a 4KB key whose primary, shard
    0, has 95% of its NIC taken by an antagonist when ``loaded``."""
    cell = build_cell(mode)
    client = cell.connect_client(strategy=GetStrategy.TWO_R,
                                 client_config=client_config)
    key = key_with_primary_shard(cell, 0)
    preload_keys(cell, client, [key], 4096)
    if loaded:
        victim = cell.backend_by_task(cell.task_for_shard(0))
        cell.fabric.start_antagonist(
            victim.host, 0.95 * cell.fabric.config.host_rate_bytes_per_sec,
            direction="both")
        cell.sim.run(until=cell.sim.now + 2e-3)
    recorder = measure_gets(cell, client, [key], ops, interval=20e-6)
    return recorder.percentile(50), recorder.percentile(99)


def closed_loop_gets(sim, writer, hosts, per_worker, get):
    """GET/s, CPU-us per GET on ``hosts`` and median latency (us) of
    four workers each running ``get()`` ``per_worker`` times in a row."""
    sim.run(until=sim.process(writer.set(b"k", b"v" * 64)))
    cpu_before = sum(h.ledger.total() for h in hosts)
    start = sim.now
    latencies = []

    def worker():
        for _ in range(per_worker):
            latencies.append((yield from get()))

    sim.run(until=sim.all_of([sim.process(worker()) for _ in range(4)]))
    ops = 4 * per_worker
    cpu = sum(h.ledger.total() for h in hosts) - cpu_before
    return (ops / (sim.now - start), cpu / ops * 1e6,
            sorted(latencies)[len(latencies) // 2] * 1e6)


def mixed_loop(sim, client, ops, key_at, stream, get_fraction, value, gap,
               get_latency, set_latency):
    """``ops`` ops ``gap`` apart: op ``i`` on ``key_at(i)`` is a GET with
    probability ``get_fraction``, else a SET of ``value``."""
    for i in range(ops):
        key = key_at(i)
        if stream.bernoulli(get_fraction):
            result = yield from client.get(key)
            get_latency.record(result.latency)
        else:
            result = yield from client.set(key, value)
            set_latency.record(result.latency)
        yield sim.timeout(gap)


def ramp_step(sim, clients, keys, stream, step, rate, seconds, issue):
    """For ``seconds``, each client runs ``issue(client, key)`` over
    ``keys`` after each exponential gap at ``rate`` per second."""
    end = sim.now + seconds

    def load(client, arrivals):
        i = 0
        while sim.now < end:
            yield sim.timeout(arrivals.expovariate(rate))
            yield from issue(client, keys[i % len(keys)])
            i += 1

    sim.run(until=sim.all_of([sim.process(load(c, stream.child(f"{step}-{j}")))
                              for j, c in enumerate(clients)]))
