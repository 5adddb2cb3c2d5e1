"""End-to-end telemetry: traced operations decompose into the full
client → transport → fabric → backend span tree over simulated time, and
the cell registry records what the benchmarks read back."""

import pytest

from repro.core import (Cell, CellSpec, ClientConfig, CliqueMapClient,
                        GetStrategy, ReplicationMode)
from repro.telemetry import TraceContext


def run_traced_get(transport):
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport=transport))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.set(b"k", b"v" * 64)
        result = yield from client.get(b"k")
        return result

    result = cell.sim.run(until=cell.sim.process(app()))
    return cell, result


@pytest.mark.parametrize("transport", ["pony", "rdma", "1rma"])
def test_2xr_get_phases_sum_to_latency(transport):
    cell, result = run_traced_get(transport)
    assert result.hit
    trace = result.trace
    assert isinstance(trace, TraceContext)
    root = trace.root
    assert root.name == "get" and root.finished
    assert root.labels["status"] == "hit"

    index, data, validate = (root.find("index"), root.find("data"),
                             root.find("validate"))
    # Phases are contiguous by construction: each starts the simulated
    # instant the previous ends, so their durations sum to the op
    # latency with no gap and no overlap.
    assert index.start == root.start
    assert index.end == data.start
    assert data.end == validate.start
    assert validate.end == root.end
    total = index.duration + data.duration + validate.duration
    assert total == pytest.approx(result.latency, rel=1e-9)
    assert root.duration == result.latency


@pytest.mark.parametrize("transport", ["pony", "rdma", "1rma"])
def test_2xr_get_spans_reach_the_backend(transport):
    _cell, result = run_traced_get(transport)
    root = result.trace.root

    # R=3 index fetches, all retained in the tree. The quorum (2) that
    # settled the phase stays under it; the abandoned third leg, still
    # in flight when the phase closed, is hoisted to the root
    # (reparent-on-close) instead of freezing an interval that pretends
    # to contain it.
    index_reads = [s for s in root.find_all("transport.read")
                   if s.labels.get("kind") == "index"]
    assert len(index_reads) == 3
    in_phase = [s for s in root.find("index").find_all("transport.read")
                if s.labels.get("kind") == "index"]
    assert len(in_phase) >= 2
    hoisted = [s for s in index_reads
               if s.labels.get("hoisted_from") == "index"]
    assert len(index_reads) - len(in_phase) == len(hoisted)
    # Reads that remain under the index phase are contained by it.
    phase = root.find("index")
    assert all(phase.start <= s.start and s.end <= phase.end
               for s in in_phase)
    # The speculative data fetch launched before the quorum settles
    # starts under the index phase that initiated it (and is hoisted
    # with it if it outlives the phase).
    assert any(s.labels.get("kind") == "data"
               for s in root.find_all("transport.read"))

    # Every read crosses the fabric (egress → propagate → ingress, read
    # from the delivery's depart / arrive instants) and lands on a
    # backend host.
    deliver = root.find("fabric.deliver")
    assert deliver is not None
    assert deliver.children == []
    assert deliver.start < deliver.labels["depart"] < \
        deliver.labels["arrive"] < deliver.end
    serve = root.find("backend.serve")
    assert serve is not None
    assert serve.labels["host"].startswith("host/backend-")
    # All spans inside a finished op are themselves finished.
    assert all(span.finished for _d, span in root.walk())


def test_partitioned_batch_leg_keeps_its_exchange():
    """The client partitioned from one backend: that backend's coalesced
    leg fails with its exchange span inside it, closed at the failure —
    not hoisted to the op root and clipped there."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, transport="1rma",
                         seed=3))
    client = cell.connect_client()
    keys = [b"partitioned-%d" % i for i in range(16)]

    def app():
        for key in keys:
            yield from client.set(key, b"v" * 64)
        cell.fabric.partition(client.host,
                              cell.backend_by_task("backend-0").host)
        return (yield from client.get_multi(keys))

    results = cell.sim.run(until=cell.sim.process(app()))
    assert all(r.hit for r in results)
    root = cell.tracer.last()
    assert root.name == "get_multi"
    assert not [s for _d, s in root.walk() if str(
        s.labels.get("hoisted_from", "")).startswith("transport.")]
    down = [s for _d, s in root.walk()
            if s.labels.get("outcome") == "down"]
    assert [s.name for s in down] == ["transport.read_multi"]
    exchange, = down[0].children
    assert exchange.name == "nic.exchange" and exchange.labels["entries"]
    assert exchange.end == down[0].end
    for _d, span in root.walk():
        if span.name.startswith("nic."):
            assert span.parent.name.startswith("transport.")
            assert span.end <= span.parent.end


def test_mutation_trace_reaches_backend_handlers():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport="pony"))
    client = cell.connect_client()

    def app():
        result = yield from client.set(b"k", b"v")
        return result

    result = cell.sim.run(until=cell.sim.process(app()))
    root = result.trace.root
    assert root.name == "set"
    mutate = root.find("mutate")
    assert mutate is not None
    # R=3 fanout: one RPC per replica, each served by a backend handler.
    calls = [s for s in mutate.find_all("rpc.call")
             if s.labels.get("method") == "Set"]
    assert len(calls) == 3
    assert root.find("backend.serve") is not None
    assert root.find("handler.set") is not None


def test_registry_records_what_the_client_did():
    cell, result = run_traced_get("pony")
    assert cell.metrics.total("cliquemap_ops_total",
                              op="get", status="hit") == 1.0
    assert cell.metrics.total("cliquemap_ops_total",
                              op="set", status="applied") == 1.0
    samples = cell.metrics.merged_samples("cliquemap_op_latency_seconds",
                                          op="get")
    assert samples == [result.latency]
    # Backend-side RPC counters saw the replicated SET.
    assert cell.metrics.total("cliquemap_backend_rpcs_total",
                              method="Set") == 3.0
    # The tracer retains the finished root spans, newest last.
    assert cell.tracer.last() is result.trace.root


def test_retry_accounting_channels_agree_for_every_op():
    """``client.stats`` and the registry count the same retries and
    sheds, whichever op retried — on a private-registry client, so the
    registry holds this client's events only."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony"))
    client = CliqueMapClient(
        cell.sim, cell.fabric, cell.fabric.add_host("host/private"),
        cell.spec.name, cell.config_store, cell.backend_by_task,
        cell.transport, client_id=7,
        # Two retry tokens, never refilled: the GET spends both and is
        # shed on its third attempt; SET and ERASE are shed on their first.
        config=ClientConfig(retry_budget_capacity=2.0,
                            retry_budget_fill_rate=0.0))
    cell.sim.run(until=cell.sim.process(client.connect()))
    for backend in cell.serving_backends():
        cell.fabric.partition(client.host, backend.host)

    def app():
        yield from client.get(b"k")
        yield from client.set(b"k", b"v")
        yield from client.erase(b"k")

    cell.sim.run(until=cell.sim.process(app()))
    metrics = client.metrics
    assert metrics is not cell.metrics
    for op, retries in (("get", 3), ("set", 1), ("erase", 1)):
        assert metrics.total("cliquemap_retries_total", op=op) == retries
        assert metrics.total("cliquemap_retries_shed_total", op=op) == 1
    assert client.stats["retries"] == \
        metrics.total("cliquemap_retries_total") == 5
    assert client.stats["retries_shed"] == \
        metrics.total("cliquemap_retries_shed_total") == 3
    cell.close()


@pytest.mark.parametrize("transport", ["pony", "rdma", "1rma"])
def test_get_multi_phases_sum_to_batch_latency(transport):
    """The batched fast path keeps PR 1's contiguity invariant: the
    coalesced index phase and the data phase tile the batch exactly, and
    their durations sum to the slowest key's latency (= the batch's
    wall time, since per-key latencies are stamped as keys settle)."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport=transport))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    keys = [f"k{i}".encode() for i in range(6)]

    def app():
        for key in keys:
            yield from client.set(key, b"v" * 32)
        results = yield from client.get_multi(keys)
        return results

    results = cell.sim.run(until=cell.sim.process(app()))
    assert all(r.hit for r in results)
    root = cell.tracer.last()
    assert root.name == "get_multi" and root.labels["batch"] == 6

    index, data = root.find("index"), root.find("data")
    assert index.start == root.start
    # The data phase starts the simulated instant the index phase ends —
    # speculative fetches launched *during* the index phase are recorded
    # under the phase that initiated them, so the tiling holds.
    assert index.end == data.start
    assert data.end == root.end
    total = index.duration + data.duration
    assert total == pytest.approx(root.duration, rel=1e-9)
    assert root.duration == max(r.latency for r in results)


def test_set_multi_phases_sum_to_batch_latency():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport="pony"))
    client = cell.connect_client()
    items = [(f"k{i}".encode(), b"v" * 32) for i in range(5)]

    def app():
        results = yield from client.set_multi(items)
        return results

    results = cell.sim.run(until=cell.sim.process(app()))
    assert all(r.ok for r in results)
    root = cell.tracer.last()
    assert root.name == "set_multi" and root.labels["batch"] == 5

    build, mutate = root.find("build"), root.find("mutate")
    assert build.start == root.start
    assert build.end == mutate.start
    assert mutate.end == root.end
    total = build.duration + mutate.duration
    assert total == pytest.approx(root.duration, rel=1e-9)
    # Every key in a coalesced batch completes with the batch.
    assert all(r.latency == root.duration for r in results)


def test_tail_sampling_keeps_one_in_n_of_each_op_kind():
    """An append opens its inner GET and CAS as parented spans; those
    are part of its one root, so appends are sampled 1-in-N like GETs."""
    cell = Cell(CellSpec(num_shards=3, trace_sample_every=3))
    client = cell.connect_client()
    tracer = cell.tracer
    kept = {}

    def app():
        for op in ("append", "get"):
            dropped = tracer.sampled_out
            for i in range(60):
                key = b"log-%d" % i
                if op == "append":
                    yield from client.append(key, b"entry")
                else:
                    yield from client.get(key)
            kept[op] = 60 - (tracer.sampled_out - dropped)

    cell.sim.run(until=cell.sim.process(app()))
    assert kept == {"append": 20, "get": 20}
