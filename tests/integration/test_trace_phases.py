"""A delivery's phases survive every consumer of a span tree.

A fabric delivery is one ``fabric.deliver`` span carrying two instants:
``depart`` (its last byte left the sender's egress link) and ``arrive``
(its first byte reached the receiver). Egress queueing, propagation and
ingress queueing are ``depart - start``, ``arrive - depart`` and
``end - arrive``. Each consumer that ships span trees out of the process
— the Chrome/Perfetto export, a postmortem bundle's ``traces.json`` and
the stitched cross-zone traces — must carry both instants on every
delivery that crossed the wire.
"""

import json
import zlib

from repro.core import Cell, CellSpec, GetStrategy, ReplicationMode
from repro.observe.postmortem import find_bundles
from repro.telemetry import chrome_trace
from repro.tools.cli import main

#: (recorded, retained, crc32 of the retained events) of the bundle the
#: partition drill below writes. The shape of a span tree must not change
#: what the flight recorder sees.
FLIGHT_GOLDEN = (4488, 4096, "f5ab45f7")


def _crossed_the_wire(labels) -> bool:
    return not labels.get("dropped") and labels["src"] != labels["dst"]


def _walk(span: dict):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def _assert_phases(start, depart, arrive, end) -> None:
    assert start <= depart <= arrive <= end, (start, depart, arrive, end)


def test_chrome_trace_carries_each_delivery_phase():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=4,
                         transport="pony"))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)

    def app():
        yield from client.set(b"k", b"v" * 64)
        return (yield from client.get(b"k"))

    result = cell.sim.run(until=cell.sim.process(app()))
    events = [e for e in chrome_trace([result.trace.root])["traceEvents"]
              if e["name"] == "fabric.deliver"]
    assert events
    for event in events:
        args = event["args"]
        assert _crossed_the_wire(args)
        # Microseconds on the slice, seconds in the args.
        slack = 1e-6
        _assert_phases(event["ts"] - slack, float(args["depart"]) * 1e6,
                       float(args["arrive"]) * 1e6,
                       event["ts"] + event["dur"] + slack)


def test_postmortem_bundle_carries_each_delivery_phase(tmp_path, capsys):
    assert main(["observe", "--fault", "partition", "--duration", "1.6",
                 "--settle", "0.5", "--flight",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    bundle, = find_bundles(str(tmp_path))
    with open(f"{bundle}/traces.json") as fh:
        roots = json.load(fh)["traces"]
    deliveries = [s for root in roots for s in _walk(root)
                  if s["name"] == "fabric.deliver"
                  and _crossed_the_wire(s["labels"])]
    assert deliveries
    for span in deliveries:
        labels = span["labels"]
        _assert_phases(span["start"], labels["depart"], labels["arrive"],
                       span["end"])
    with open(f"{bundle}/flight.json") as fh:
        flight = json.load(fh)
    crc = zlib.crc32(json.dumps(flight["events"], sort_keys=True).encode())
    assert (flight["recorded"], flight["retained"], "%08x" % crc) == \
        FLIGHT_GOLDEN


def test_stitched_federation_traces_carry_each_delivery_phase(tmp_path,
                                                              capsys):
    zones, stitched = tmp_path / "zones.json", tmp_path / "stitched.json"
    assert main(["trace", "--federation-demo", "--zones", "2",
                 "--duration", "0.08", "--assert-cross-zone",
                 "--save", str(zones), "--out", str(stitched)]) == 0
    assert "depart=" in capsys.readouterr().out
    saved = [s for roots in json.loads(zones.read_text())["zones"].values()
             for root in roots for s in _walk(root)
             if s["name"] == "fabric.deliver"
             and _crossed_the_wire(s["labels"])]
    events = [e for e in json.loads(stitched.read_text())["traceEvents"]
              if e["name"] == "fabric.deliver"
              and _crossed_the_wire(e["args"])]
    assert saved and len(events) == len(saved)
    for span in saved:
        labels = span["labels"]
        _assert_phases(span["start"], labels["depart"], labels["arrive"],
                       span["end"])
    for event in events:
        args = event["args"]
        assert "depart" in args and "arrive" in args
