"""Race conditions between RMA GETs and RPC mutations (§5.3, Fig 5).

These tests exercise the real tear window: backends write DataEntry body
and checksum as separate steps in simulated time, so a GET's data fetch
that lands between them observes a genuinely torn entry and must detect
it via the checksum and retry.
"""


from repro.core import (BackendConfig, Cell, CellSpec, ClientConfig, GetStatus,
                        GetStrategy, ReplicationMode)


def build(mode=ReplicationMode.R3_2, tear_window=50e-6, **cell_kwargs):
    """A cell with an exaggerated tear window so races are easy to hit."""
    backend_config = BackendConfig(min_write_step=tear_window)
    spec = CellSpec(mode=mode, num_shards=3, transport="pony",
                    backend_config=backend_config, **cell_kwargs)
    return Cell(spec)


def test_get_racing_set_never_returns_torn_value():
    """Fire GETs continuously while a SET is in flight: every HIT must be
    a complete old or complete new value, never a mixture."""
    cell = build()
    writer = cell.connect_client(strategy=GetStrategy.TWO_R)
    reader = cell.connect_client(strategy=GetStrategy.TWO_R)
    old_value = b"A" * 256
    new_value = b"B" * 256
    observed = []

    def setup():
        yield from writer.set(b"k", old_value)

    cell.sim.run(until=cell.sim.process(setup()))

    def write_loop():
        yield cell.sim.timeout(100e-6)
        yield from writer.set(b"k", new_value)

    def read_loop():
        end = cell.sim.now + 2e-3
        while cell.sim.now < end:
            result = yield from reader.get(b"k")
            if result.hit:
                observed.append(result.value)
            yield cell.sim.timeout(5e-6)

    cell.sim.process(write_loop())
    done = cell.sim.process(read_loop())
    cell.sim.run(until=done)

    assert observed, "reads must succeed"
    for value in observed:
        assert value in (old_value, new_value), "torn value escaped!"
    assert new_value in observed, "the write must eventually be visible"


def test_torn_read_detected_and_retried():
    """Aim a GET's data fetch directly into the tear window."""
    cell = build(tear_window=200e-6)
    writer = cell.connect_client(strategy=GetStrategy.TWO_R)
    reader = cell.connect_client(strategy=GetStrategy.TWO_R)

    def setup():
        yield from writer.set(b"k", b"old" * 100)

    cell.sim.run(until=cell.sim.process(setup()))

    def write_loop():
        # Several in-place overwrites, each holding the tear window open.
        for i in range(10):
            yield from writer.set(b"k", (b"%03d" % i) * 100)

    def read_loop():
        retried = 0
        for _ in range(100):
            result = yield from reader.get(b"k")
            if result.hit:
                assert len(result.value) == 300
            retried = reader.stats["validation_failures"]
            yield cell.sim.timeout(2e-6)
        return retried

    cell.sim.process(write_loop())
    done = cell.sim.process(read_loop())
    cell.sim.run(until=done)
    # With a 200us window held open repeatedly, some reads must have torn
    # and been retried rather than returning garbage.
    assert reader.stats["validation_failures"] > 0
    assert reader.stats["get_errors"] == 0


def test_reads_linearize_to_old_or_new_under_quorum():
    """Fig 5's race: quorum on V0 vs V1 vs retry — never a third state."""
    cell = build()
    writer = cell.connect_client(strategy=GetStrategy.TWO_R)
    readers = [cell.connect_client(strategy=GetStrategy.TWO_R)
               for _ in range(3)]
    observed = set()

    def setup():
        yield from writer.set(b"k", b"V0")

    cell.sim.run(until=cell.sim.process(setup()))

    def write_once():
        yield cell.sim.timeout(50e-6)
        yield from writer.set(b"k", b"V1")

    end = cell.sim.now + 1e-3

    def read_loop(client):
        while cell.sim.now < end:
            result = yield from client.get(b"k")
            if result.hit:
                observed.add(result.value)
            yield cell.sim.timeout(3e-6)

    cell.sim.process(write_once())
    procs = [cell.sim.process(read_loop(c)) for c in readers]
    cell.sim.run(until=cell.sim.all_of(procs))
    assert observed <= {b"V0", b"V1"}
    assert b"V1" in observed


def test_concurrent_writers_converge_to_single_version():
    """Uncoordinated mutations: all replicas settle on the same winner."""
    cell = build()
    writers = [cell.connect_client() for _ in range(4)]
    reader = cell.connect_client()

    def write(client, tag):
        for i in range(5):
            yield from client.set(b"contended", b"writer-%d-gen-%d" % (tag, i))
            yield cell.sim.timeout(7e-6)

    procs = [cell.sim.process(write(c, i)) for i, c in enumerate(writers)]
    cell.sim.run(until=cell.sim.all_of(procs))

    def read():
        result = yield from reader.get(b"contended")
        return result

    result = cell.sim.run(until=cell.sim.process(read()))
    assert result.hit
    # All three backends agree on the final value/version.
    stored = set()
    for backend in cell.serving_backends():
        found = backend.lookup_local(b"contended")
        if found is not None:
            stored.add(found)
    assert len(stored) == 1
    assert result.value == next(iter(stored))[0]


def test_erase_concurrent_with_set_respects_version_order():
    cell = build()
    a = cell.connect_client()
    b = cell.connect_client()

    def seq():
        yield from a.set(b"k", b"v")
        # b's erase is nominated after a's set -> erase wins.
        yield from b.erase(b"k")
        result = yield from a.get(b"k")
        assert result.status is GetStatus.MISS
        # a new set (fresh TrueTime) re-installs.
        yield from a.set(b"k", b"v2")
        result = yield from a.get(b"k")
        assert result.hit and result.value == b"v2"

    cell.sim.run(until=cell.sim.process(seq()))


def test_get_forward_progress_is_obstruction_free():
    """GETs keep succeeding between bursts of SETs (no livelock)."""
    cell = build(tear_window=5e-6)
    writer = cell.connect_client()
    reader = cell.connect_client(
        client_config=ClientConfig(max_retries=20))
    outcomes = []

    def setup():
        yield from writer.set(b"k", b"x" * 64)

    cell.sim.run(until=cell.sim.process(setup()))

    def write_loop():
        for i in range(50):
            yield from writer.set(b"k", bytes([i % 256]) * 64)

    def read_loop():
        end = cell.sim.now + 5e-3
        while cell.sim.now < end:
            result = yield from reader.get(b"k")
            outcomes.append(result.status)
            yield cell.sim.timeout(10e-6)

    cell.sim.process(write_loop())
    done = cell.sim.process(read_loop())
    cell.sim.run(until=done)
    hits = sum(1 for s in outcomes if s is GetStatus.HIT)
    assert hits > len(outcomes) * 0.9
    assert GetStatus.ERROR not in outcomes
