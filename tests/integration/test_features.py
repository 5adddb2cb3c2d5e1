"""Post-launch features: compression, append, dashboard snapshots (§9)."""


from repro.analysis import snapshot_cell
from repro.core import (Cell, CellSpec, ClientConfig, GetStatus,
                        ReplicationMode, SetStatus)


def build(client_config=None, mode=ReplicationMode.R3_2):
    cell = Cell(CellSpec(mode=mode, num_shards=3, transport="pony"))
    client = cell.connect_client(client_config=client_config)
    return cell, client


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


# -- compression ---------------------------------------------------------------

def compressing_config():
    return ClientConfig(compression_enabled=True)


def test_compression_roundtrip():
    cell, client = build(compressing_config())
    value = b"the quick brown fox " * 100  # highly compressible

    def app():
        result = yield from client.set(b"k", value)
        assert result.status is SetStatus.APPLIED
        got = yield from client.get(b"k")
        assert got.status is GetStatus.HIT
        assert got.value == value

    run(cell, app())


def test_compression_reduces_stored_bytes():
    cell, client = build(compressing_config())
    value = b"A" * 8192

    def app():
        yield from client.set(b"k", value)

    run(cell, app())
    backend = cell.serving_backends()[0]
    stored = backend.lookup_local(b"k")
    assert stored is not None
    assert len(stored[0]) < len(value) / 4  # wrapped+compressed


def test_small_values_stored_raw():
    cell, client = build(compressing_config())
    value = b"tiny"

    def app():
        yield from client.set(b"k", value)
        got = yield from client.get(b"k")
        assert got.value == value

    run(cell, app())
    backend = cell.serving_backends()[0]
    stored = backend.lookup_local(b"k")[0]
    assert stored == b"\x00" + value  # wrapped but not compressed


def test_incompressible_values_stored_raw():
    import os
    cell, client = build(compressing_config())
    value = bytes(os.urandom(2048))

    def app():
        yield from client.set(b"k", value)
        got = yield from client.get(b"k")
        assert got.value == value

    run(cell, app())
    stored = cell.serving_backends()[0].lookup_local(b"k")[0]
    assert stored[0:1] == b"\x00"


def test_compression_charges_client_cpu():
    cell, client = build(compressing_config())
    value = b"B" * (64 * 1024)

    def app():
        base = client.host.ledger.seconds("cliquemap-client")
        yield from client.set(b"k", value)
        yield from client.get(b"k")
        return client.host.ledger.seconds("cliquemap-client") - base

    cpu = run(cell, app())
    assert cpu > 500e-6  # 64KB at ~10us/KB compress + decompress


def test_compression_interops_between_compressing_clients():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    writer = cell.connect_client(client_config=compressing_config())
    reader = cell.connect_client(client_config=compressing_config())
    value = b"shared data " * 200

    def app():
        yield from writer.set(b"k", value)
        got = yield from reader.get(b"k")
        assert got.value == value

    run(cell, app())


def test_compression_with_cas():
    cell, client = build(compressing_config())
    value = b"C" * 2048

    def app():
        yield from client.set(b"k", value)
        got = yield from client.get(b"k")
        result = yield from client.cas(b"k", value + b"!", got.version)
        assert result.status is SetStatus.APPLIED
        got = yield from client.get(b"k")
        assert got.value == value + b"!"

    run(cell, app())


# -- append -----------------------------------------------------------------------

def test_append_extends_value():
    cell, client = build()

    def app():
        yield from client.set(b"log", b"a")
        for part in (b"b", b"c", b"d"):
            result = yield from client.append(b"log", part)
            assert result.status is SetStatus.APPLIED
        got = yield from client.get(b"log")
        assert got.value == b"abcd"

    run(cell, app())


def test_append_creates_missing_key():
    cell, client = build()

    def app():
        result = yield from client.append(b"fresh", b"start")
        assert result.status is SetStatus.APPLIED
        got = yield from client.get(b"fresh")
        assert got.value == b"start"

    run(cell, app())


def test_concurrent_appends_all_land():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    clients = [cell.connect_client(
        client_config=ClientConfig(max_retries=40)) for _ in range(3)]

    def setup():
        yield from clients[0].set(b"log", b"")

    run(cell, setup())

    def appender(client, tag):
        for i in range(4):
            result = yield from client.append(b"log", b"%c" % (65 + tag))
            assert result.status is SetStatus.APPLIED
            yield cell.sim.timeout(5e-6)

    procs = [cell.sim.process(appender(c, i))
             for i, c in enumerate(clients)]
    cell.sim.run(until=cell.sim.all_of(procs))

    def verify():
        got = yield from clients[0].get(b"log")
        return got.value

    value = run(cell, verify())
    # CAS serializes the appends: every byte lands exactly once.
    assert len(value) == 12
    assert sorted(value) == sorted(b"AAAABBBBCCCC")


def _append_accounting(cell, client):
    """One append's footprint in the three accounting channels."""
    registry = cell.metrics
    return (client.stats["appends"],
            registry.total("cliquemap_ops_total", op="append"),
            registry.total("cliquemap_op_latency_seconds", op="append"),
            len([e for e in cell.flight.events(kind="op")
                 if e.fields["op"] == "append"]))


def test_append_is_counted_like_every_other_op():
    """An applied and a failed append each move ``client.stats``, the
    registry and the flight ring by exactly one, and the whole
    read-modify-write is one span tree."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony", flight_recorder=True))
    client = cell.connect_client()
    assert _append_accounting(cell, client) == (0, 0, 0, 0)

    applied = run(cell, client.append(b"log", b"a"))
    assert applied.status is SetStatus.APPLIED
    assert _append_accounting(cell, client) == (1, 1, 1, 1)
    assert cell.metrics.value("cliquemap_ops_total", op="append",
                              status="applied") == 1
    root = applied.trace.root
    assert root.name == "append" and root.parent is None
    # (An abandoned SCAR leg that lands after its GET closed is hoisted
    # here too; the inner ops are what is asserted.)
    assert [child.name for child in root.children
            if not child.name.startswith("transport.")] == ["get", "set"]
    assert cell.tracer.last() is root

    for backend in cell.serving_backends():
        backend.crash()
    failed = run(cell, client.append(b"log", b"b", deadline=1e-3))
    assert failed.status is SetStatus.FAILED and failed.error
    assert _append_accounting(cell, client) == (2, 2, 2, 2)
    assert cell.metrics.value("cliquemap_ops_total", op="append",
                              status="failed") == 1
    assert cell.metrics.total("cliquemap_retries_total", op="append") >= 1


def test_append_on_a_dead_cohort_returns_by_its_deadline():
    """The engine checks the deadline and hands the inner ops what is
    left of it; the private loop ran every attempt at the default
    deadline and came back after 23x its own."""
    cell, client = build()
    for backend in cell.serving_backends():
        backend.crash()

    def app():
        started = cell.sim.now
        result = yield from client.append(b"k", b"c", deadline=200e-6)
        return result, cell.sim.now - started

    result, elapsed = run(cell, app())
    assert result.status is SetStatus.FAILED
    assert result.error == "get-error"
    assert elapsed <= 1.5 * 200e-6
    assert result.latency == elapsed
    assert client.stats["appends"] == 1


def test_append_with_compression():
    cell, client = build(compressing_config())

    def app():
        yield from client.set(b"log", b"x" * 1000)
        yield from client.append(b"log", b"y" * 1000)
        got = yield from client.get(b"log")
        assert got.value == b"x" * 1000 + b"y" * 1000

    run(cell, app())


# -- dashboard -------------------------------------------------------------------

def test_snapshot_collects_cell_state():
    cell, client = build()

    def app():
        for i in range(15):
            yield from client.set(b"k-%d" % i, b"v")
        for i in range(15):
            yield from client.get(b"k-%d" % i)

    run(cell, app())
    snap = snapshot_cell(cell, clients=[client])
    assert snap.alive_backends == 3
    assert snap.total_resident_keys == 45  # 15 keys x 3 replicas
    assert snap.total_dram_bytes > 0
    assert snap.total_gets == 15
    assert snap.aggregate_hit_rate == 1.0
    assert all(b.pony_engines is not None for b in snap.backends)
    rendered = snap.render()
    assert "backend-0" in rendered
    assert "clients" in rendered


def test_snapshot_reflects_crash():
    cell, client = build()

    def app():
        yield from client.set(b"k", b"v")

    run(cell, app())
    cell.backend_by_task("backend-1").crash()
    snap = snapshot_cell(cell)
    assert snap.alive_backends == 2
    assert "DOWN" in snap.render()
