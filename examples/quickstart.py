#!/usr/bin/env python
"""Quickstart: stand up a CliqueMap cell and run basic operations.

Builds a small R=3.2 cell over the Pony Express transport, writes and
reads a few keys, demonstrates versioned overwrites, CAS, and erase, and
prints the latency/CPU numbers that motivate the whole design: RMA-path
GETs cost a tiny fraction of an RPC.

Run:  python examples/quickstart.py
"""

from repro import Cell, CellSpec, GetStatus, GetStrategy, ReplicationMode


def main():
    # A six-shard R=3.2 cell: every key lives on three adjacent backends
    # and reads take a client-side quorum of two. Clients are context
    # managers: on exit they flush buffered touch batches and release
    # their telemetry series.
    with Cell(CellSpec(name="quickstart", mode=ReplicationMode.R3_2,
                       num_shards=6, transport="pony")) as cell, \
            cell.connect_client() as client, \
            cell.connect_client(strategy=GetStrategy.RPC) as rpc_client:
        run(cell, client, rpc_client)


def run(cell, client, rpc_client):
    sim = cell.sim

    def app():
        # -- basic SET / GET -------------------------------------------------
        result = yield from client.set(b"greeting", b"hello cliquemap")
        print(f"SET applied at {result.replicas_applied} replicas "
              f"(version {result.version})")

        got = yield from client.get(b"greeting")
        assert got.status is GetStatus.HIT
        print(f"GET hit: {got.value!r}  latency={got.latency * 1e6:.1f}us "
              f"attempts={got.attempts}")

        # -- versioned overwrite -----------------------------------------------
        yield from client.set(b"greeting", b"hello again")
        got = yield from client.get(b"greeting")
        print(f"after overwrite: {got.value!r} (version {got.version})")

        # -- compare-and-set ---------------------------------------------------
        cas = yield from client.cas(b"greeting", b"cas-won", got.version)
        print(f"CAS with matching version: {cas.status.name}")
        stale_cas = yield from client.cas(b"greeting", b"cas-lost",
                                          got.version)
        print(f"CAS with stale version:    {stale_cas.status.name}")

        # -- erase (tombstoned: late SETs cannot resurrect) ------------------
        yield from client.erase(b"greeting")
        gone = yield from client.get(b"greeting")
        print(f"after ERASE: {gone.status.name}")

        # -- the efficiency story ------------------------------------------------
        yield from client.set(b"hot-key", b"x" * 256)
        rma = yield from client.get(b"hot-key")
        rpc = yield from rpc_client.get(b"hot-key")
        print(f"\nlatency, RMA (SCAR) GET: {rma.latency * 1e6:7.1f} us")
        print(f"latency, RPC GET:        {rpc.latency * 1e6:7.1f} us")

    sim.run(until=sim.process(app()))

    client_cpu = client.host.ledger.total()
    backend_cpu = sum(b.host.ledger.total() for b in cell.backends.values())
    print(f"\ntotal simulated CPU: client={client_cpu * 1e6:.1f}us "
          f"backends={backend_cpu * 1e6:.1f}us")
    print(f"simulated wall time: {sim.now * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
