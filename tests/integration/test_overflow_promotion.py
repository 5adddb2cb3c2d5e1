"""Overflow promotion: spilled keys regain RMA-accessibility (§4.2)."""


from repro.core import (BackendConfig, Cell, CellSpec, GetStatus,
                        GetStrategy, ReplicationMode, SetStatus)


def build():
    spec = CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(num_buckets=1, ways=2,
                                     overflow_rpc_fallback=True,
                                     index_resize_load_factor=2.0))
    cell = Cell(spec)
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    return cell, client, cell.backend_by_task("backend-0")


def run(cell, gen):
    return cell.sim.run(until=cell.sim.process(gen))


def test_erase_promotes_spilled_key():
    cell, client, backend = build()

    def app():
        # Fill both ways; the third key spills to overflow.
        for key in (b"a", b"b", b"c"):
            assert (yield from client.set(key, b"v")).status \
                is SetStatus.APPLIED
        assert len(backend.overflow) == 1
        spilled = next(iter(backend.overflow.values()))[0]
        survivors = [k for k in (b"a", b"b", b"c") if k != spilled]
        # Erase a resident key: the spilled one is promoted into the slot.
        yield from client.erase(survivors[0])
        assert len(backend.overflow) == 0
        # The promoted key is now RMA-visible (no RPC fallback needed).
        lookups_before = backend.stats.rpc_lookups
        result = yield from client.get(spilled)
        assert result.status is GetStatus.HIT
        assert backend.stats.rpc_lookups == lookups_before

    run(cell, app())


def test_overflow_bit_cleared_after_promotion():
    cell, client, backend = build()

    def app():
        for key in (b"a", b"b", b"c"):
            yield from client.set(key, b"v")
        assert backend.index.read_flags(0) & 0x1
        spilled = next(iter(backend.overflow.values()))[0]
        survivors = [k for k in (b"a", b"b", b"c") if k != spilled]
        yield from client.erase(survivors[0])
        assert not (backend.index.read_flags(0) & 0x1)

    run(cell, app())


def test_promotion_preserves_version():
    cell, client, backend = build()

    def app():
        for key in (b"a", b"b", b"c"):
            yield from client.set(key, b"value-" + key)
        spilled_hash, (spilled_key, _value, version) = \
            next(iter(backend.overflow.items()))
        survivors = [k for k in (b"a", b"b", b"c") if k != spilled_key]
        yield from client.erase(survivors[0])
        found = backend.lookup_local(spilled_key)
        assert found is not None
        assert found[0] == b"value-" + spilled_key
        assert found[1] == version

    run(cell, app())


def test_set_multi_batches_mutations():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = cell.connect_client()

    def app():
        items = [(b"m-%d" % i, b"v-%d" % i) for i in range(20)]
        start = cell.sim.now
        results = yield from client.set_multi(items)
        batch_latency = cell.sim.now - start
        assert all(r.status is SetStatus.APPLIED for r in results)
        # The batch overlaps: far faster than 20 serial SETs.
        assert batch_latency < 10 * results[0].latency
        for key, value in items:
            got = yield from client.get(key)
            assert got.hit and got.value == value

    run(cell, app())
