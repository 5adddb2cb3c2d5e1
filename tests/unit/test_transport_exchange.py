"""The wire exchange's contract, frozen as goldens.

Every one-sided op on every transport is the same exchange — client tx,
request delivery, liveness, serve, response delivery, client rx — and
what one op costs (scheduler entries, the completion instant, CPU by
component, counters, the span tree) is part of the model, not an
accident of which method body was edited last. ``HAPPY`` and ``FAILURE``
below are what the tree produced when each row was stamped; a refactor
of ``repro.transport`` must reproduce them to the bit, and a deliberate
behaviour change re-stamps only the rows it names.

To re-stamp: ``PYTHONPATH=src python tests/unit/test_transport_exchange.py``
prints both tables.
"""

import pprint
import struct

import pytest

from repro.net import Fabric, FabricConfig, NetworkDropError, gbps
from repro.sim import Simulator
from repro.telemetry import Span
from repro.transport import (Arena, MemoryRegion, OneRmaTransport,
                             PonyTransport, RdmaTransport, RegionRevokedError,
                             RemoteHostDownError, RmaOutOfBoundsError)

TRANSPORTS = {"rdma": RdmaTransport, "pony": PonyTransport,
              "1rma": OneRmaTransport}
WINDOW_BYTES = 1 << 20
KEY_HASH = b"H" * 16
BATCH = ((0, 64), (1024, 512), (8192, 4096))


class Rig:
    """A quiet two-host fabric with one exposed 1 MiB window."""

    def __init__(self, transport: str, client_zone: str = "local", **kwargs):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, FabricConfig(
            host_rate_bytes_per_sec=gbps(50.0), one_way_delay=4e-6,
            delay_jitter=0.0))
        self.client = self.fabric.add_host("client", zone=client_zone)
        self.server = self.fabric.add_host("server")
        self.transport = TRANSPORTS[transport](self.sim, self.fabric,
                                               **kwargs)
        self.endpoint = self.transport.attach(self.server)
        self.transport.attach(self.client)
        self.arena = Arena(WINDOW_BYTES, WINDOW_BYTES)
        self.window = self.endpoint.expose(MemoryRegion(self.arena))
        self.arena.write(4096, bytes(range(256)) * 16)
        if transport == "pony":
            # A toy bucket: key hash + (region, offset, size) pointer.
            self.arena.write(0, KEY_HASH + struct.pack(
                "<qqq", self.window.region_id, 4096, 700))
            self.endpoint.install_scar_program(_scar_program)
            self.transport.register_message_handler(
                self.server, "lookup", lambda payload: ({"found": True}, 300))

    def op(self, name: str, trace=None, size=256):
        t, rid = self.transport, self.window.region_id
        if name == "read":
            return t.read(self.client, "server", rid, 4096, size, trace=trace)
        if name == "read_multi":
            return t.read_multi(
                self.client, "server",
                [(rid, off, size) for off, size in BATCH], trace=trace)
        if name == "scar-hit":
            return t.scar(self.client, "server", rid, 0, 40, KEY_HASH,
                          trace=trace)
        if name == "scar-miss":
            return t.scar(self.client, "server", rid, 0, 40, b"M" * 16,
                          trace=trace)
        assert name == "message"
        return t.message(self.client, "server", "lookup", 80, {"key": b"k"},
                         trace=trace)

    def window_count(self):
        """Held 1RMA solicitation slots (None on the other transports)."""
        windows = getattr(self.transport, "_windows", None)
        if windows is None:
            return None
        return sum(w.count for w in windows.values())


def _scar_program(bucket, wanted):
    if bucket[:16] == wanted:
        return struct.unpack("<qqq", bucket[16:40])
    return None


def _delta(before: dict, after: dict) -> dict:
    return {k: repr(after[k] - before.get(k, 0)) for k in sorted(after)
            if after[k] != before.get(k, 0)}


#: Labels that are instants, read back as the phase rows below.
INSTANTS = ("depart", "arrive")


def _tree(root: Span) -> list:
    """Every span under ``root``, plus the phases its instants carry.

    An exchange is one ``nic.exchange`` span and a delivery one
    ``fabric.deliver`` span; the rows named ``nic.tx`` / ``nic.rx`` and
    ``egress`` / ``propagate`` / ``ingress`` are derived from them (the
    exchange's self time before its first child and after its last; a
    delivery's ``depart`` and ``arrive``), so each phase's duration is
    frozen as a row of its own.
    """
    return list(_rows(root, 0))[1:]


def _rows(span: Span, depth: int):
    labels = " ".join(f"{k}={v}" for k, v in sorted(span.labels.items())
                      if k not in INSTANTS)
    yield depth, span.name, labels, repr(span.duration)
    below = depth + 1
    if span.name == "nic.exchange":
        yield below, "nic.tx", "", repr(span.children[0].start - span.start)
    if "depart" in span.labels:
        depart, arrive = span.labels["depart"], span.labels["arrive"]
        yield below, "egress", "", repr(depart - span.start)
        yield below, "propagate", "", repr(arrive - depart)
        yield below, "ingress", "", repr(span.end - arrive)
    for child in span.children:
        yield from _rows(child, below)
    if span.name == "nic.exchange":
        yield below, "nic.rx", "", repr(span.end - span.children[-1].end)


# -- the happy path ------------------------------------------------------------

HAPPY_ROWS = [(t, op) for t in TRANSPORTS for op in ("read", "read_multi")] \
    + [("pony", op) for op in ("scar-hit", "scar-miss", "message")]


def measure_happy(transport: str, op: str, traced: bool) -> dict:
    rig = Rig(transport)
    sim = rig.sim
    out = {}

    def proc():
        # The warm-up starts Pony's engine monitors (a process per host,
        # ticking every 200us); the measured op runs between two ticks.
        yield from rig.op(op)
        yield sim.timeout(50e-6)
        root = Span("op", lambda: sim.now) if traced else None
        seq, cpu_c, cpu_s, counters = (
            sim._seq, rig.client.ledger.snapshot(),
            rig.server.ledger.snapshot(), vars(rig.transport.counters).copy())
        payload = yield from rig.op(op, trace=root)
        out.update(
            entries=sim._seq - seq, done_at=repr(sim.now),
            client_cpu=_delta(cpu_c, rig.client.ledger.snapshot()),
            server_cpu=_delta(cpu_s, rig.server.ledger.snapshot()),
            counters=_delta(counters, vars(rig.transport.counters)),
            payload=_shape(payload))
        if traced:
            out["tree"] = _tree(root.finish())

    sim.run(until=sim.process(proc()))
    assert sim.now < 200e-6
    return out


def _shape(payload):
    """Lengths, not bytes: what came back, compactly."""
    if isinstance(payload, (bytes, type(None))):
        return payload if payload is None else len(payload)
    if isinstance(payload, (list, tuple)):
        return [_shape(p) for p in payload]
    if isinstance(payload, Exception):
        return type(payload).__name__
    return payload


# -- failure paths ---------------------------------------------------------------

def _revoked(rig):
    rig.endpoint.revoke(rig.window)


def _dead(rig):
    rig.server.crash()


def _partitioned(rig):
    rig.fabric.partition(rig.client, rig.server)


def _no_scar_program(rig):
    rig.endpoint.scar_program = None


def _no_handler(rig):
    rig.transport._msg_handlers.clear()


def _batch_with(bad_entry):
    def op(rig):
        rid = rig.window.region_id
        entries = [(rid, 0, 64), bad_entry(rid), (rid, 8192, 4096)]
        return rig.transport.read_multi(rig.client, "server", entries)
    return op


#: scenario -> (ops it applies to, rig mutation, rig kwargs, op override)
FAILURES = {
    "revoked": (("read", "scar-hit"), _revoked, {}, None),
    "dead": (("read", "read_multi", "scar-hit", "message"), _dead, {}, None),
    "cross-zone": (("read", "read_multi"), None,
                   {"client_zone": "remote"}, None),
    "partitioned": (("read", "read_multi"), _partitioned, {}, None),
    "oob": (("read",), None, {},
            lambda rig: rig.op("read", size=2 ** 32)),
    "revoked-entry": (("read_multi",), None, {},
                      _batch_with(lambda rid: (rid + 1000, 0, 64))),
    "oob-entry": (("read_multi",), None, {},
                  _batch_with(lambda rid: (rid, 4096, 2 ** 32))),
    "no-program": (("scar-hit",), _no_scar_program, {}, None),
    "no-handler": (("message",), _no_handler, {}, None),
}
PONY_ONLY = ("scar-hit", "scar-miss", "message")
FAILURE_ROWS = [(t, scenario, op)
                for scenario, (ops, *_rest) in FAILURES.items()
                for op in ops
                for t in (("pony",) if op in PONY_ONLY else TRANSPORTS)]


def measure_failure(transport: str, scenario: str, op: str) -> dict:
    _ops, mutate, kwargs, override = FAILURES[scenario]
    rig = Rig(transport, **kwargs)
    sim = rig.sim
    out = {}

    def proc():
        if "client_zone" not in kwargs:
            yield from rig.op(op)  # warm-up, as in the happy table
        yield sim.timeout(50e-6)
        if mutate is not None:
            mutate(rig)
        start, failures = sim.now, rig.transport.counters.failures
        try:
            payload = yield from (override(rig) if override else rig.op(op))
            out["outcome"] = _shape(payload)
        except (RegionRevokedError, RemoteHostDownError, RmaOutOfBoundsError,
                NetworkDropError) as exc:
            out["outcome"] = type(exc).__name__
        out["elapsed"] = repr(sim.now - start)
        out["failures"] = rig.transport.counters.failures - failures

    sim.run(until=sim.process(proc()))
    # Every failure path hands its solicitation slot back.
    assert rig.window_count() in (None, 0)
    return out


# -- the frozen tables -------------------------------------------------------------

HAPPY = {'rdma:read': {'entries': 7,
               'done_at': '7.050976000000001e-05',
               'client_cpu': {'rma-client': '7e-07'},
               'server_cpu': {},
               'counters': {'bytes_fetched': '256', 'reads': '1'},
               'payload': 256,
               'tree': [(1,
                         'nic.exchange',
                         'entries=0',
                         '1.0254880000000008e-05'),
                        (2, 'nic.tx', '', '3.5000000000000173e-07'),
                        (2,
                         'fabric.deliver',
                         'bytes=64 dst=server src=client',
                         '4.0416000000000055e-06'),
                        (3, 'egress', '', '2.0799999999998175e-08'),
                        (3, 'propagate', '', '4.000000000000002e-06'),
                        (3, 'ingress', '', '2.080000000000495e-08'),
                        (2,
                         'backend.serve',
                         'host=server',
                         '1.3999999999999934e-06'),
                        (2,
                         'fabric.deliver',
                         'bytes=288 dst=client src=server',
                         '4.113280000000012e-06'),
                        (3, 'egress', '', '5.664000000000493e-08'),
                        (3, 'propagate', '', '4.000000000000002e-06'),
                        (3, 'ingress', '', '5.664000000000493e-08'),
                        (2, 'nic.rx', '', '3.4999999999999495e-07')]},
 'rdma:read_multi': {'entries': 7,
                     'done_at': '7.418208000000001e-05',
                     'client_cpu': {'rma-client': '7e-07'},
                     'server_cpu': {},
                     'counters': {'batched_keys': '3',
                                  'batched_reads': '1',
                                  'bytes_fetched': '4672'},
                     'payload': [64, 512, 4096],
                     'tree': [(1,
                               'nic.exchange',
                               'entries=3',
                               '1.2091040000000006e-05'),
                              (2, 'nic.tx', '', '3.4999999999999495e-07'),
                              (2,
                               'fabric.deliver',
                               'bytes=112 dst=server parts=3 src=client',
                               '4.0569600000000026e-06'),
                              (3, 'egress', '', '2.8480000000000107e-08'),
                              (3, 'propagate', '', '4.000000000000002e-06'),
                              (3, 'ingress', '', '2.8480000000000107e-08'),
                              (2,
                               'backend.serve',
                               'host=server op=batch',
                               '1.800000000000003e-06'),
                              (2,
                               'fabric.deliver',
                               'bytes=4728 dst=client parts=3 src=server',
                               '5.5340800000000105e-06'),
                              (3, 'egress', '', '7.670400000000041e-07'),
                              (3, 'propagate', '', '4.000000000000002e-06'),
                              (3, 'ingress', '', '7.670400000000041e-07'),
                              (2, 'nic.rx', '', '3.4999999999999495e-07')]},
 'pony:read': {'entries': 7,
               'done_at': '6.902176000000003e-05',
               'client_cpu': {'pony': '8.529999999999999e-07'},
               'server_cpu': {'pony': '5.03e-07'},
               'counters': {'bytes_fetched': '256', 'reads': '1'},
               'payload': 256,
               'tree': [(1,
                         'nic.exchange',
                         'entries=0',
                         '9.510880000000023e-06'),
                        (2, 'nic.tx', '', '4.0000000000000295e-07'),
                        (2,
                         'fabric.deliver',
                         'bytes=64 dst=server src=client',
                         '4.041599999999999e-06'),
                        (3, 'egress', '', '2.0799999999998175e-08'),
                        (3, 'propagate', '', '3.999999999999996e-06'),
                        (3, 'ingress', '', '2.080000000000495e-08'),
                        (2,
                         'backend.serve',
                         'host=server',
                         '5.030000000000052e-07'),
                        (2,
                         'fabric.deliver',
                         'bytes=288 dst=client src=server',
                         '4.113280000000012e-06'),
                        (3, 'egress', '', '5.664000000000493e-08'),
                        (3, 'propagate', '', '4.000000000000002e-06'),
                        (3, 'ingress', '', '5.664000000000493e-08'),
                        (2, 'nic.rx', '', '4.5300000000000396e-07')]},
 'pony:read_multi': {'entries': 7,
                     'done_at': '7.234501750000001e-05',
                     'client_cpu': {'pony': '9.0671875e-07'},
                     'server_cpu': {'pony': '6.7475e-07'},
                     'counters': {'batched_keys': '3',
                                  'batched_reads': '1',
                                  'bytes_fetched': '4672'},
                     'payload': [64, 512, 4096],
                     'tree': [(1,
                               'nic.exchange',
                               'entries=3',
                               '1.1172508750000008e-05'),
                              (2, 'nic.tx', '', '4.013124999999965e-07'),
                              (2,
                               'fabric.deliver',
                               'bytes=112 dst=server parts=3 src=client',
                               '4.0569600000000026e-06'),
                              (3, 'egress', '', '2.8480000000000107e-08'),
                              (3, 'propagate', '', '4.000000000000002e-06'),
                              (3, 'ingress', '', '2.8480000000000107e-08'),
                              (2,
                               'backend.serve',
                               'host=server op=batch',
                               '6.747499999999989e-07'),
                              (2,
                               'fabric.deliver',
                               'bytes=4728 dst=client parts=3 src=server',
                               '5.5340800000000105e-06'),
                              (3, 'egress', '', '7.670400000000041e-07'),
                              (3, 'propagate', '', '4.000000000000002e-06'),
                              (3, 'ingress', '', '7.670400000000041e-07'),
                              (2, 'nic.rx', '', '5.05406249999999e-07')]},
 '1rma:read': {'entries': 9,
               'done_at': '6.974176000000001e-05',
               'client_cpu': {'rma-client': '6e-07'},
               'server_cpu': {},
               'counters': {'bytes_fetched': '256', 'reads': '1'},
               'payload': 256,
               'tree': [(1,
                         'nic.exchange',
                         'entries=0',
                         '9.870880000000006e-06'),
                        (2, 'nic.tx', '', '3.000000000000005e-07'),
                        (2,
                         'fabric.deliver',
                         'bytes=64 dst=server src=client',
                         '4.0416000000000055e-06'),
                        (3, 'egress', '', '2.0799999999998175e-08'),
                        (3, 'propagate', '', '4.000000000000002e-06'),
                        (3, 'ingress', '', '2.080000000000495e-08'),
                        (2,
                         'backend.serve',
                         'host=server',
                         '1.115999999999994e-06'),
                        (2,
                         'fabric.deliver',
                         'bytes=288 dst=client src=server',
                         '4.113280000000012e-06'),
                        (3, 'egress', '', '5.664000000000493e-08'),
                        (3, 'propagate', '', '4.000000000000002e-06'),
                        (3, 'ingress', '', '5.664000000000493e-08'),
                        (2, 'nic.rx', '', '2.9999999999999374e-07')]},
 '1rma:read_multi': {'entries': 9,
                     'done_at': '7.316608e-05',
                     'client_cpu': {'rma-client': '6e-07'},
                     'server_cpu': {},
                     'counters': {'batched_keys': '3',
                                  'batched_reads': '1',
                                  'bytes_fetched': '4672'},
                     'payload': [64, 512, 4096],
                     'tree': [(1,
                               'nic.exchange',
                               'entries=3',
                               '1.1583040000000004e-05'),
                              (2, 'nic.tx', '', '2.9999999999999374e-07'),
                              (2,
                               'fabric.deliver',
                               'bytes=112 dst=server parts=3 src=client',
                               '4.0569600000000026e-06'),
                              (3, 'egress', '', '2.8480000000000107e-08'),
                              (3, 'propagate', '', '4.000000000000002e-06'),
                              (3, 'ingress', '', '2.8480000000000107e-08'),
                              (2,
                               'backend.serve',
                               'host=server op=batch',
                               '1.392000000000003e-06'),
                              (2,
                               'fabric.deliver',
                               'bytes=4728 dst=client parts=3 src=server',
                               '5.5340800000000105e-06'),
                              (3, 'egress', '', '7.670400000000041e-07'),
                              (3, 'propagate', '', '4.000000000000002e-06'),
                              (3, 'ingress', '', '7.670400000000041e-07'),
                              (2, 'nic.rx', '', '2.9999999999999374e-07')]},
 'pony:scar-hit': {'entries': 8,
                   'done_at': '6.972519750000001e-05',
                   'client_cpu': {'pony': '8.590468750000002e-07'},
                   'server_cpu': {'pony': '6.886718749999999e-07'},
                   'counters': {'bytes_fetched': '772', 'scars': '1'},
                   'payload': [40, 700],
                   'tree': [(1,
                             'nic.exchange',
                             'entries=0',
                             '9.862598750000008e-06'),
                            (2, 'nic.tx', '', '4.0000000000000295e-07'),
                            (2,
                             'fabric.deliver',
                             'bytes=80 dst=server src=client',
                             '4.046719999999991e-06'),
                            (3, 'egress', '', '2.3360000000001077e-08'),
                            (3, 'propagate', '', '3.999999999999996e-06'),
                            (3, 'ingress', '', '2.33599999999943e-08'),
                            (2,
                             'backend.serve',
                             'host=server op=scar',
                             '6.88671875000003e-07'),
                            (2,
                             'fabric.deliver',
                             'bytes=772 dst=client src=server',
                             '4.268160000000005e-06'),
                            (3, 'egress', '', '1.3408000000000126e-07'),
                            (3, 'propagate', '', '4.000000000000002e-06'),
                            (3, 'ingress', '', '1.3408000000000126e-07'),
                            (2, 'nic.rx', '', '4.59046875000006e-07')]},
 'pony:scar-miss': {'entries': 7,
                    'done_at': '6.9244385e-05',
                    'client_cpu': {'pony': '8.508437500000002e-07'},
                    'server_cpu': {'pony': '6.804687499999999e-07'},
                    'counters': {'bytes_fetched': '72', 'scars': '1'},
                    'payload': [40, None],
                    'tree': [(1,
                              'nic.exchange',
                              'entries=0',
                              '9.622192499999994e-06'),
                             (2, 'nic.tx', '', '4.0000000000000295e-07'),
                             (2,
                              'fabric.deliver',
                              'bytes=80 dst=server src=client',
                              '4.046719999999991e-06'),
                             (3, 'egress', '', '2.3360000000001077e-08'),
                             (3, 'propagate', '', '3.999999999999996e-06'),
                             (3, 'ingress', '', '2.33599999999943e-08'),
                             (2,
                              'backend.serve',
                              'host=server op=scar',
                              '6.804687499999975e-07'),
                             (2,
                              'fabric.deliver',
                              'bytes=72 dst=client src=server',
                              '4.044160000000002e-06'),
                             (3, 'egress', '', '2.2079999999999626e-08'),
                             (3, 'propagate', '', '4.000000000000002e-06'),
                             (3, 'ingress', '', '2.2079999999999626e-08'),
                             (2, 'nic.rx', '', '4.508437500000005e-07')]},
 'pony:message': {'entries': 9,
                  'done_at': '7.746597250000001e-05',
                  'client_cpu': {'pony': '8.544531249999999e-07'},
                  'server_cpu': {'msg-app': '3.8e-06',
                                 'pony': '9.044531249999998e-07'},
                  'counters': {'messages': '1'},
                  'payload': {'found': True},
                  'tree': [(1, 'nic.exchange', 'entries=0', '1.373298625e-05'),
                           (2, 'nic.tx', '', '4.0093750000000416e-07'),
                           (2,
                            'fabric.deliver',
                            'bytes=80 dst=server src=client',
                            '4.046719999999991e-06'),
                           (3, 'egress', '', '2.33599999999943e-08'),
                           (3, 'propagate', '', '4.000000000000002e-06'),
                           (3, 'ingress', '', '2.33599999999943e-08'),
                           (2,
                            'backend.serve',
                            'host=server op=msg',
                            '4.7044531250000065e-06'),
                           (3, 'handler.message', '', '3.7999999999999975e-06'),
                           (2,
                            'fabric.deliver',
                            'bytes=332 dst=client src=server',
                            '4.127359999999994e-06'),
                           (3, 'egress', '', '6.367999999999598e-08'),
                           (3, 'propagate', '', '4.000000000000002e-06'),
                           (3, 'ingress', '', '6.367999999999598e-08'),
                           (2, 'nic.rx', '', '4.535156250000036e-07')]}}

FAILURE = {'rdma:revoked:read': {'outcome': 'RegionRevokedError',
                       'elapsed': '5.791600000000001e-06',
                       'failures': 1},
 'pony:revoked:read': {'outcome': 'RegionRevokedError',
                       'elapsed': '4.944600000000007e-06',
                       'failures': 1},
 '1rma:revoked:read': {'outcome': 'RegionRevokedError',
                       'elapsed': '4.841600000000005e-06',
                       'failures': 1},
 'pony:revoked:scar-hit': {'outcome': 'RegionRevokedError',
                           'elapsed': '5.127188749999991e-06',
                           'failures': 1},
 'rdma:dead:read': {'outcome': 'RemoteHostDownError',
                    'elapsed': '0.00020439160000000004',
                    'failures': 1},
 'pony:dead:read': {'outcome': 'RemoteHostDownError',
                    'elapsed': '0.0002044416',
                    'failures': 1},
 '1rma:dead:read': {'outcome': 'RemoteHostDownError',
                    'elapsed': '0.00020434160000000002',
                    'failures': 1},
 'rdma:dead:read_multi': {'outcome': 'RemoteHostDownError',
                          'elapsed': '0.00020440695999999998',
                          'failures': 1},
 'pony:dead:read_multi': {'outcome': 'RemoteHostDownError',
                          'elapsed': '0.00020445827250000002',
                          'failures': 1},
 '1rma:dead:read_multi': {'outcome': 'RemoteHostDownError',
                          'elapsed': '0.00020435696',
                          'failures': 1},
 'pony:dead:scar-hit': {'outcome': 'RemoteHostDownError',
                        'elapsed': '0.00020444672000000002',
                        'failures': 1},
 'pony:dead:message': {'outcome': 'RemoteHostDownError',
                       'elapsed': '0.0002044476575',
                       'failures': 1},
 'rdma:cross-zone:read': {'outcome': 'RemoteHostDownError',
                          'elapsed': '0.0150003916',
                          'failures': 1},
 'pony:cross-zone:read': {'outcome': 'RemoteHostDownError',
                          'elapsed': '0.015000441599999999',
                          'failures': 1},
 '1rma:cross-zone:read': {'outcome': 'RemoteHostDownError',
                          'elapsed': '0.0150003416',
                          'failures': 1},
 'rdma:cross-zone:read_multi': {'outcome': 'RemoteHostDownError',
                                'elapsed': '0.01500040696',
                                'failures': 1},
 'pony:cross-zone:read_multi': {'outcome': 'RemoteHostDownError',
                                'elapsed': '0.015000458272500001',
                                'failures': 1},
 '1rma:cross-zone:read_multi': {'outcome': 'RemoteHostDownError',
                                'elapsed': '0.01500035696',
                                'failures': 1},
 'rdma:partitioned:read': {'outcome': 'NetworkDropError',
                           'elapsed': '0.00015035',
                           'failures': 0},
 'pony:partitioned:read': {'outcome': 'NetworkDropError',
                           'elapsed': '0.0001504',
                           'failures': 0},
 '1rma:partitioned:read': {'outcome': 'NetworkDropError',
                           'elapsed': '0.00015029999999999997',
                           'failures': 0},
 'rdma:partitioned:read_multi': {'outcome': 'NetworkDropError',
                                 'elapsed': '0.00015035',
                                 'failures': 0},
 'pony:partitioned:read_multi': {'outcome': 'NetworkDropError',
                                 'elapsed': '0.00015040131249999998',
                                 'failures': 0},
 '1rma:partitioned:read_multi': {'outcome': 'NetworkDropError',
                                 'elapsed': '0.00015029999999999997',
                                 'failures': 0},
 'rdma:oob:read': {'outcome': 'RmaOutOfBoundsError',
                   'elapsed': '5.791600000000001e-06',
                   'failures': 1},
 'pony:oob:read': {'outcome': 'RmaOutOfBoundsError',
                   'elapsed': '4.9416e-06',
                   'failures': 1},
 '1rma:oob:read': {'outcome': 'RmaOutOfBoundsError',
                   'elapsed': '4.841600000000005e-06',
                   'failures': 1},
 'rdma:revoked-entry:read_multi': {'outcome': [64, 'RegionRevokedError', 4096],
                                   'elapsed': '1.192720000000001e-05',
                                   'failures': 1},
 'pony:revoked-entry:read_multi': {'outcome': [64, 'RegionRevokedError', 4096],
                                   'elapsed': '1.099741875000001e-05',
                                   'failures': 1},
 '1rma:revoked-entry:read_multi': {'outcome': [64, 'RegionRevokedError', 4096],
                                   'elapsed': '1.13912e-05',
                                   'failures': 1},
 'rdma:oob-entry:read_multi': {'outcome': [64, 'RmaOutOfBoundsError', 4096],
                               'elapsed': '1.192720000000001e-05',
                               'failures': 1},
 'pony:oob-entry:read_multi': {'outcome': [64, 'RmaOutOfBoundsError', 4096],
                               'elapsed': '1.0996668750000012e-05',
                               'failures': 1},
 '1rma:oob-entry:read_multi': {'outcome': [64, 'RmaOutOfBoundsError', 4096],
                               'elapsed': '1.1387200000000005e-05',
                               'failures': 1},
 'pony:no-program:scar-hit': {'outcome': 'RegionRevokedError',
                              'elapsed': '4.446719999999994e-06',
                              'failures': 1},
 'pony:no-handler:message': {'outcome': 'RegionRevokedError',
                             'elapsed': '4.447657499999995e-06',
                             'failures': 1}}


@pytest.mark.parametrize("transport,op", HAPPY_ROWS)
def test_exchange_costs_what_it_cost(transport, op):
    golden = HAPPY[f"{transport}:{op}"]
    assert measure_happy(transport, op, traced=True) == golden
    # The null-span path schedules and charges exactly the same.
    untraced = dict(golden)
    del untraced["tree"]
    assert measure_happy(transport, op, traced=False) == untraced


@pytest.mark.parametrize("transport,scenario,op", FAILURE_ROWS)
def test_exchange_fails_the_way_it_failed(transport, scenario, op):
    assert measure_failure(transport, scenario, op) == \
        FAILURE[f"{transport}:{scenario}:{op}"]


@pytest.mark.parametrize("transport,scenario,op", FAILURE_ROWS)
def test_every_failure_counts_exactly_once(transport, scenario, op):
    """One rule for ``TransportCounters.failures``: an op the transport
    fails as a whole (any ``RmaError``), or one failed entry of a batch
    that otherwise succeeds, is one failure — whichever stage raised it.
    (An out-of-bounds single read used to count 0 while the same entry in
    a batch counted 1; so did a missing SCAR program or message handler.)
    A delivery the fabric drops is counted by the fabric, not here."""
    expected = 0 if scenario == "partitioned" else 1
    assert measure_failure(transport, scenario, op)["failures"] == expected


@pytest.mark.parametrize("transport", ["pony", "1rma"])
def test_out_of_bounds_fetch_pays_only_the_fixed_serve_term(transport):
    """A size field nobody validated (one flipped byte in an IndexEntry's
    u32 makes it 2**32) must not buy serve time the 1 MiB window could
    never return: the read fails on the NIC's translation, having held
    the server engine for ``server_read`` (it was 50.3 ms) or the PCIe
    stage not at all (268 ms) — the client's op deadline is 10 ms."""
    rig = Rig(transport)
    sim = rig.sim
    got = {}

    def proc():
        yield from rig.op("read")
        yield sim.timeout(50e-6)
        start, busy = sim.now, rig.server.ledger.snapshot()
        with pytest.raises(RmaOutOfBoundsError):
            yield from rig.op("read", size=2 ** 32)
        got.update(elapsed=sim.now - start,
                   server_cpu=_delta(busy, rig.server.ledger.snapshot()))

    sim.run(until=sim.process(proc()))
    assert got["elapsed"] < 20e-6
    if transport == "pony":
        assert got["server_cpu"] == {
            "pony": repr(rig.transport.cost.server_read)}
    else:  # it fails where a revoked region does: before any PCIe work
        assert repr(got["elapsed"]) == \
            FAILURE["1rma:revoked:read"]["elapsed"]


@pytest.mark.parametrize("transport", ["pony", "1rma"])
def test_out_of_bounds_entry_does_not_delay_its_batch(transport):
    """Inside a batch the bad entry adds nothing to the priced payload and
    rides back as its error value; its siblings are not held up."""
    all_good = Rig(transport)
    sim = all_good.sim
    start = sim.now
    sim.run(until=sim.process(all_good.op("read_multi")))
    bad = float(measure_failure(transport, "oob-entry",
                                "read_multi")["elapsed"])
    # First op on a cold rig vs. a warm one: the same to well under 1us.
    assert abs(bad - (sim.now - start)) < 1e-6


def test_scar_does_not_follow_a_pointer_the_window_cannot_hold():
    """The followed pointer comes out of fetched memory: a torn entry
    naming 2**32 bytes returns just the bucket, at a miss's price."""
    rig = Rig("pony")
    rig.arena.write(16, struct.pack("<qqq", rig.window.region_id, 4096,
                                    2 ** 32))
    sim = rig.sim
    got = {}

    def proc():
        yield from rig.op("scar-miss")
        yield sim.timeout(50e-6)
        busy = rig.server.ledger.snapshot()
        got["payload"] = _shape((yield from rig.op("scar-hit")))
        got["server_cpu"] = _delta(busy, rig.server.ledger.snapshot())

    sim.run(until=sim.process(proc()))
    assert got == {"payload": [40, None],
                   "server_cpu": HAPPY["pony:scar-miss"]["server_cpu"]}


def test_onerma_slot_returns_when_the_response_arrives():
    """The solicitation window bounds solicited bytes in flight, not the
    initiator's completion work: with a window of one, a second read is
    admitted the instant the first one's response lands — not after its
    completion CPU — exactly as a batch always did."""
    rig = Rig("1rma", solicitation_window_ops=1)
    sim = rig.sim
    roots = [Span("op", lambda: sim.now) for _ in range(2)]
    procs = [sim.process(rig.op("read", trace=root)) for root in roots]
    sim.run(until=sim.all_of(procs))
    first_exchange = roots[0].find("nic.exchange")
    first_response = first_exchange.children[-1]
    second_request = roots[1].find("fabric.deliver")
    assert first_exchange.end > first_response.end  # rx still to come
    # Admitted: its request leaves the instant the first response lands.
    assert second_request.start == first_response.end
    assert rig.window_count() == 0


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("op", ["read", "read_multi"])
def test_a_failed_exchange_closes_inside_its_leg(transport, op):
    """A partitioned exchange raises out of its leg; its span must close
    as it does, where it is. (A coalesced one used to stay open, be
    hoisted out of the leg when the leg closed, and be clipped by the
    root; a single one closed after tx and covered none of the wait.)"""
    rig = Rig(transport)
    sim = rig.sim
    root = Span("op", lambda: sim.now)
    leg = root.child(f"transport.{op}")

    def proc():
        yield from rig.op(op)
        yield sim.timeout(50e-6)
        rig.fabric.partition(rig.client, rig.server)
        with pytest.raises(NetworkDropError):
            yield from rig.op(op, trace=leg)
        leg.finish()
        yield sim.timeout(50e-6)
        root.finish()

    sim.run(until=sim.process(proc()))
    assert not [s for _d, s in root.walk() if str(
        s.labels.get("hoisted_from", "")).startswith("transport.")]
    exchanges = [s for _d, s in root.walk() if s.name.startswith("nic.")]
    assert [s.parent for s in exchanges] == [leg]
    assert exchanges[0].end == leg.end      # closed when the drop surfaced
    deliver, = exchanges[0].children
    assert deliver.labels["dropped"] is True
    assert "depart" not in deliver.labels and deliver.end == leg.end
    assert rig.window_count() in (None, 0)


def test_entries_per_exchange_are_a_property_of_the_transport():
    """7 / 7 / 9: tx, the request delivery (arrival, wake-up), serve, the
    response delivery, rx — plus 1RMA's window slot and its second (PCIe)
    serve delay. A batch costs what a singleton costs; SCAR's followed
    pointer and MSG's app-thread wake-up are the only extra serve
    entries."""
    entries = {row: HAPPY[row]["entries"] for row in HAPPY}
    assert entries == {
        "rdma:read": 7, "rdma:read_multi": 7,
        "pony:read": 7, "pony:read_multi": 7,
        "1rma:read": 9, "1rma:read_multi": 9,
        "pony:scar-hit": 8, "pony:scar-miss": 7, "pony:message": 9}


if __name__ == "__main__":
    print("HAPPY = ", end="")
    pprint.pprint({f"{t}:{op}": measure_happy(t, op, traced=True)
                   for t, op in HAPPY_ROWS}, width=79, sort_dicts=False)
    print("\nFAILURE = ", end="")
    pprint.pprint({f"{t}:{s}:{op}": measure_failure(t, s, op)
                   for t, s, op in FAILURE_ROWS}, width=79, sort_dicts=False)
