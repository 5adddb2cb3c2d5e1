"""Every span an op emits belongs to a benchmark layer.

``benchmarks/perf/layers.py`` attributes each op's simulated time to a
layer by span name (``layer_of_span``). A span name that the map does
not know moves its time out of every layer, and only a ``--trace 1``
run's ``unmapped_spans`` would show it. This drives one of each op shape
through a traced cell and checks every name the trees carry.
"""

import importlib.util
from pathlib import Path

from repro.core import BackendConfig, Cell, CellSpec, ReplicationMode

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "perf_layers", ROOT / "benchmarks" / "perf" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

#: A one-bucket, one-way index: the third key overflows (§4.2).
TINY_INDEX = BackendConfig(num_buckets=1, ways=1, overflow_rpc_fallback=True,
                           index_resize_load_factor=2.0)


def _spans(transport, body, strategy=None, backend_config=None):
    """Every span of every op ``body(cell, client)`` runs after a SET."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport=transport,
                         backend_config=backend_config or BackendConfig()))
    client = cell.connect_client(strategy=strategy)

    def app():
        yield from client.set(b"k", b"v" * 64)
        yield from body(cell, client)

    cell.sim.run(until=cell.sim.process(app()))
    return [span for root in cell.tracer.finished
            for _depth, span in root.walk()]


def _get(_cell, client):
    yield from client.get(b"k")


def _overflowed_miss(_cell, client):
    for key in (b"spill-a", b"spill-b"):
        yield from client.set(key, b"v")
    yield from client.get(b"never-set")


def _batched_and_mutations(cell, client):
    yield from client.get_multi([b"k", b"never-set"])
    yield from client.set_multi([(b"a", b"1"), (b"b", b"2")])
    written = yield from client.set(b"c", b"3")
    yield from client.cas(b"c", b"4", written.version)
    yield from client.erase(b"a")
    cell.fabric.partition(client.host,
                          cell.backend_by_task("backend-0").host)
    yield from client.get(b"k")


def test_every_span_name_maps_to_a_benchmark_layer():
    spans = []
    for strategy in ("2xr", "scar", "msg", "rpc"):
        spans += _spans("pony", _get, strategy=strategy)
    spans += _spans("pony", _overflowed_miss, strategy="2xr",
                    backend_config=TINY_INDEX)
    spans += _spans("1rma", _batched_and_mutations)
    names = {span.name for span in spans}
    assert {name for name in names if layers.layer_of_span(name) is None} \
        == set()
    # The op shapes above really ran.
    assert {"get", "get_multi", "set", "set_multi", "erase", "cas",
            "transport.read", "transport.scar", "transport.message",
            "transport.read_multi", "rpc.lookup", "rpc.overflow",
            "handler.message", "nic.exchange"} <= names
    assert any(span.name == "fabric.deliver" and span.labels.get("dropped")
               for span in spans)
