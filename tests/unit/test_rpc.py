"""Unit tests for the RPC framework (wire, auth, channels, servers)."""

import collections
import enum
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Fabric, FabricConfig, gbps
from repro.rpc import (Acl, ApplicationError, AuthConfig, Authenticator,
                       DeadlineExceededError, Message, MethodNotFoundError,
                       PermissionDeniedError, Principal, ProtocolVersion,
                       RpcServer, UnavailableError, VersionMismatchError,
                       connect, estimate_size)
from repro.sim import Simulator


def build(handler_map=None, acl=None, auth=None, server_versions=None):
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig(host_rate_bytes_per_sec=gbps(50.0),
                                      one_way_delay=4e-6, delay_jitter=0.0))
    client_host = fabric.add_host("client")
    server_host = fabric.add_host("server")
    kwargs = {}
    if server_versions:
        kwargs["min_version"], kwargs["max_version"] = server_versions
    server = RpcServer(sim, server_host, "svc", acl=acl, **kwargs)
    for method, handler in (handler_map or {}).items():
        server.register(method, handler)
    channel = connect(sim, fabric, client_host, server, Principal("tester"),
                      authenticator=auth)
    return sim, fabric, client_host, server_host, server, channel


def echo_handler(payload, context):
    yield context.sim.timeout(0)
    return {"echo": payload.get("msg")}


def run_call(sim, channel, method, payload, **kwargs):
    def caller():
        result = yield from channel.call(method, payload, **kwargs)
        return result
    return sim.run(until=sim.process(caller()))


def test_estimate_size_primitives():
    assert estimate_size(None) == 1
    assert estimate_size(7) == 8
    assert estimate_size(b"abcd") == 4
    assert estimate_size("hey") == 3
    assert estimate_size({"k": "vv"}) > 3
    assert estimate_size([1, 2]) == 20


def ref_estimate_size(value):
    """The isinstance ladder ``estimate_size`` was before it dispatched on
    exact type: the reference every value must still size to, because
    wire bytes feed NIC serialization and CPU charges."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, dict):
        return sum(ref_estimate_size(k) + ref_estimate_size(v) + 2
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(ref_estimate_size(v) + 2 for v in value)
    inner = getattr(value, "__dict__", None)
    if inner is not None:
        return ref_estimate_size(inner)
    return len(repr(value))


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


@dataclass
class Blob:
    body: object
    note: str = "é"


class Slotted:
    __slots__ = ()

    def __repr__(self):
        return "<slotted>"


hashable_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False), st.binary(max_size=40),
    st.text(max_size=12), st.sampled_from([Colour.RED, Label("né"), 1, True]))
leaves = st.one_of(
    hashable_leaves,
    st.binary(max_size=40).map(bytearray),
    st.binary(max_size=40).map(memoryview),
    st.just(Slotted()), st.just(range(3)))
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(hashable_leaves, children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3).map(
            collections.OrderedDict),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        children.map(Blob)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_estimate_size_equals_the_isinstance_ladder(value):
    assert estimate_size(value) == ref_estimate_size(value)


KH, VB = bytes(range(16)), bytes(range(16, 32))
HANDLER_SHAPES = [
    # requests
    {"key": b"k" * 24, "value": b"v" * 900, "version": VB},             # Set
    {"entries": [(b"k1", b"v" * 70, VB), (b"k2", b"", VB)]},  # MultiSet/MigrateIn
    {"key": b"k", "version": VB},                                       # Erase
    {"key": b"k", "value": b"v", "new_version": VB,
     "expected_version": VB},                                           # Cas
    {"key": b"k"}, {"keys": [b"a", b"bb", b"ccc"]},     # Lookup / MultiLookup
    {"key_hashes": [KH, KH]},                                           # Touch
    {"primary_shard": 3}, {"primary_shard": 3, "num_shards": 12},  # ScanSummary
    {"key_hash": KH}, {"occupancy_threshold": 0.5}, {},
    # responses
    {"applied": True, "reason": "ok", "config_id": 4},
    {"applied": False, "reason": "version-mismatch", "stored_version": VB,
     "config_id": 4},
    {"results": [{"applied": True, "reason": "ok"},
                 {"applied": False, "reason": "superseded"}], "config_id": 1},
    {"found": False}, {"found": True, "value": b"v" * 33, "version": VB},
    {"results": [{"found": False},
                 {"found": True, "value": b"x", "version": VB}]},
    {"found": True, "key": b"k", "value": b"v", "version": VB},
    {"ingested": 2}, {"entries": {KH: VB, VB: KH}}, {"applied": 3},
    {"moved": 0, "live_slabs": 2},
    {"task": "backend-0", "shard": 0, "config_id": 1, "index_region_id": 9,
     "num_buckets": 512, "ways": 7, "bucket_bytes": 464, "data_region_id": 10,
     "supports_scar": True},
    # metadata a traced call carries
    {"trace_id": "t-é", "parent": None, "sampled": True},
]


@pytest.mark.parametrize("shape", HANDLER_SHAPES)
def test_estimate_size_on_every_backend_handler_shape(shape):
    assert estimate_size(shape) == ref_estimate_size(shape)
    assert Message("M", shape, metadata={"trace": shape}).wire_size == \
        96 + 2 * ref_estimate_size(shape) + ref_estimate_size("trace") + 2


def test_bool_sizes_as_bool_and_int_subclass_as_int():
    assert estimate_size(True) == 1 and estimate_size(1) == 8
    assert estimate_size(Colour.RED) == 8
    assert estimate_size("é") == 2 and estimate_size(Label("é")) == 2
    assert estimate_size(memoryview(b"abc")) == estimate_size(
        bytearray(b"abc")) == 3
    assert estimate_size({1, 2}) == 20
    assert estimate_size(Blob(b"ab")) == ref_estimate_size(
        {"body": b"ab", "note": "é"})


def test_an_rpc_sizes_each_envelope_once(monkeypatch):
    """Request sized where it is built, response where it is built: two
    ``wire_size`` evaluations per call, and the numbers the client books
    are the ones the server charged."""
    evaluations = []
    real = Message.wire_size.fget
    monkeypatch.setattr(
        Message, "wire_size",
        property(lambda self: evaluations.append(self.method) or real(self)))
    sim, _f, _c, _s, server, channel = build({"Echo": echo_handler})
    assert run_call(sim, channel, "Echo", {"msg": "hi"}) == {"echo": "hi"}
    assert evaluations == ["Echo", "Echo"]
    assert channel.metrics.bytes_sent == server.metrics.bytes_sent == \
        96 + ref_estimate_size({"msg": "hi"})
    assert channel.metrics.bytes_received == 96 + ref_estimate_size(
        {"echo": "hi"})


def test_message_wire_size_override():
    small = Message("M", {"x": 1})
    big = Message("M", {"x": 1}, size_override=10_000)
    assert big.wire_size > small.wire_size
    assert big.wire_size >= 10_000


def test_protocol_version_ordering():
    assert ProtocolVersion(1, 0) < ProtocolVersion(1, 5) < ProtocolVersion(2, 0)
    assert ProtocolVersion(1, 3).compatible_with(ProtocolVersion(1, 0),
                                                 ProtocolVersion(1, 9))


def test_basic_call_roundtrip():
    sim, *_rest, channel = build({"Echo": echo_handler})
    result = run_call(sim, channel, "Echo", {"msg": "hi"})
    assert result == {"echo": "hi"}
    assert sim.now > 0


def test_call_charges_framework_cpu_both_sides():
    sim, _f, client_host, server_host, server, channel = build(
        {"Echo": echo_handler})
    run_call(sim, channel, "Echo", {"msg": "hi"})
    client_cpu = client_host.ledger.total()
    server_cpu = server_host.ledger.total()
    # The paper's headline: >50us combined for even an empty RPC.
    assert client_cpu + server_cpu > 50e-6
    assert client_cpu > 20e-6
    assert server_cpu > 20e-6


def test_call_metrics_count_bytes():
    sim, *_rest, server, channel = build({"Echo": echo_handler})
    run_call(sim, channel, "Echo", {"msg": "hi"})
    assert channel.metrics.calls == 1
    assert channel.metrics.errors == 0
    assert channel.metrics.bytes_sent > 0
    assert server.metrics.total_bytes == channel.metrics.total_bytes


def test_method_not_found():
    sim, *_rest, channel = build({})
    with pytest.raises(MethodNotFoundError):
        run_call(sim, channel, "Nope", {})


def test_handler_exception_wrapped():
    def bad(payload, context):
        yield context.sim.timeout(0)
        raise KeyError("missing")

    sim, *_rest, channel = build({"Bad": bad})
    with pytest.raises(ApplicationError) as excinfo:
        run_call(sim, channel, "Bad", {})
    assert isinstance(excinfo.value.cause, KeyError)


def test_deadline_exceeded():
    def slow(payload, context):
        yield context.sim.timeout(10e-3)
        return {}

    sim, *_rest, channel = build({"Slow": slow})
    with pytest.raises(DeadlineExceededError):
        run_call(sim, channel, "Slow", {}, deadline=1e-3)


def test_deadline_not_triggered_when_fast():
    sim, *_rest, channel = build({"Echo": echo_handler})
    result = run_call(sim, channel, "Echo", {"msg": "x"}, deadline=10e-3)
    assert result == {"echo": "x"}


def test_a_reply_before_its_deadline_wakes_its_caller_once():
    """The reply is returned; the deadline entry, firing later while the
    caller is parked on something else, resumes nothing."""
    sim, *_rest, channel = build({"Echo": echo_handler})
    wakes = []

    def caller():
        result = yield from channel.call("Echo", {"msg": "x"},
                                         deadline=10e-3)
        wakes.append((sim.now, result))
        yield sim.delay(20e-3)      # parked across the deadline instant
        wakes.append((sim.now, None))

    sim.run(until=sim.process(caller()))
    (landed, result), (woke, _none) = wakes
    assert result == {"echo": "x"} and landed < 10e-3
    assert woke == landed + 20e-3


def test_an_expired_call_raises_at_its_deadline_while_the_server_serves():
    """``DeadlineExceededError`` at exactly start + deadline; the server
    side still runs to completion and both ends record the call."""
    served = []

    def slow(payload, context):
        yield context.sim.delay(10e-3)
        served.append(context.sim.now)
        return {}

    sim, *_rest, server, channel = build({"Slow": slow})
    raised = []

    def caller():
        yield sim.delay(1e-3)
        started = sim.now
        try:
            yield from channel.call("Slow", {}, deadline=2e-3)
        except DeadlineExceededError:
            raised.append((started, sim.now))

    sim.process(caller())
    sim.run()
    [(started, at)] = raised
    assert at == started + 2e-3
    assert len(served) == 1 and served[0] > at
    assert server.metrics.calls == channel.metrics.calls == 1
    assert server.metrics.errors == channel.metrics.errors == 0


def test_a_call_failing_after_its_deadline_does_not_surface():
    def late_failure(payload, context):
        yield context.sim.delay(5e-3)
        raise KeyError("after the deadline")

    sim, *_rest, server, channel = build({"Bad": late_failure})
    with pytest.raises(DeadlineExceededError):
        run_call(sim, channel, "Bad", {}, deadline=1e-3)
    sim.run()       # the call's process fails now, defused
    assert server.metrics.errors == 1


@pytest.mark.parametrize("deadline", [None, 1e-3])
def test_start_runs_done_exactly_once_on_each_path(deadline):
    def slow(payload, context):
        yield context.sim.delay(5e-3)
        return {}

    def late_failure(payload, context):
        yield context.sim.delay(5e-3)
        raise KeyError("late")

    sim, *_rest, channel = build({"Echo": echo_handler, "Slow": slow,
                                  "Bad": late_failure})
    done = collections.defaultdict(list)
    for method in ("Echo", "Nope", "Slow", "Bad"):
        channel.start(method, {"msg": method}, deadline,
                      lambda reply, exc, method=method: done[method].append(
                          (sim.now, reply, type(exc).__name__)))
    sim.run()
    assert all(len(calls) == 1 for calls in done.values()) and \
        len(done) == 4, done
    assert done["Echo"][0][1:] == ({"echo": "Echo"}, "NoneType")
    assert done["Nope"][0][1:] == (None, "MethodNotFoundError")
    if deadline is None:
        assert done["Slow"][0][1:] == ({}, "NoneType")
        assert done["Bad"][0][1:] == (None, "ApplicationError")
    else:
        for method in ("Slow", "Bad"):
            assert done[method] == [(deadline, None,
                                     "DeadlineExceededError")]


def test_unavailable_when_server_stopped():
    sim, *_rest, server, channel = build({"Echo": echo_handler})
    server.stop()
    with pytest.raises(UnavailableError):
        run_call(sim, channel, "Echo", {"msg": "x"})
    assert channel.metrics.errors == 1


def test_unavailable_when_host_crashed():
    sim, _f, _ch_host, server_host, _server, channel = build(
        {"Echo": echo_handler})
    server_host.crash()
    with pytest.raises(UnavailableError):
        run_call(sim, channel, "Echo", {"msg": "x"})


def test_server_restart_restores_service():
    sim, *_rest, server, channel = build({"Echo": echo_handler})
    server.stop()
    server.start()
    assert run_call(sim, channel, "Echo", {"msg": "y"}) == {"echo": "y"}


def test_acl_denies_unauthorized_principal():
    acl = Acl()
    acl.allow("Echo", "someone-else")
    sim, *_rest, channel = build({"Echo": echo_handler}, acl=acl)
    with pytest.raises(PermissionDeniedError):
        run_call(sim, channel, "Echo", {"msg": "x"})


def test_acl_allows_authorized_principal():
    acl = Acl()
    acl.allow("Echo", "tester")
    sim, *_rest, channel = build({"Echo": echo_handler}, acl=acl)
    assert run_call(sim, channel, "Echo", {"msg": "x"}) == {"echo": "x"}


def test_acl_wildcard_method():
    acl = Acl()
    acl.allow("*", "tester")
    sim, *_rest, channel = build({"Echo": echo_handler}, acl=acl)
    assert run_call(sim, channel, "Echo", {"msg": "x"}) == {"echo": "x"}


def test_version_mismatch_rejected():
    sim, *_rest, channel = build(
        {"Echo": echo_handler},
        server_versions=(ProtocolVersion(2, 0), ProtocolVersion(2, 9)))
    with pytest.raises(VersionMismatchError):
        run_call(sim, channel, "Echo", {"msg": "x"})


def test_auth_handshake_costs_cpu_and_rtts():
    auth = Authenticator(AuthConfig(enabled=True, handshake_cpu=30e-6,
                                    handshake_rtts=2))
    sim, _f, client_host, server_host, _server, channel = build(
        {"Echo": echo_handler}, auth=auth)
    run_call(sim, channel, "Echo", {"msg": "x"})
    assert auth.handshakes == 1
    assert client_host.ledger.total() > 30e-6
    # Second call reuses the channel: no new handshake.
    run_call(sim, channel, "Echo", {"msg": "x"})
    assert auth.handshakes == 1


def test_large_response_size_override_slows_transfer():
    def small(payload, context):
        yield context.sim.timeout(0)
        return {"ok": True}

    def large(payload, context):
        yield context.sim.timeout(0)
        context.response_size_override = 10 ** 6
        return {"ok": True}

    sim1, *_r1, ch1 = build({"M": small})
    run_call(sim1, ch1, "M", {})
    t_small = sim1.now

    sim2, *_r2, ch2 = build({"M": large})
    run_call(sim2, ch2, "M", {})
    t_large = sim2.now
    assert t_large > t_small + 1e-4  # ~160us of extra serialization at 50Gbps


def test_concurrent_calls_interleave():
    def slow(payload, context):
        yield context.sim.timeout(1e-3)
        return {"id": payload["id"]}

    sim, *_rest, channel = build({"Slow": slow})
    results = []

    def caller(i):
        result = yield from channel.call("Slow", {"id": i})
        results.append((sim.now, result["id"]))

    for i in range(3):
        sim.process(caller(i))
    sim.run()
    # All three overlap on the server (handlers run concurrently),
    # so they all finish close to 1ms, not 3ms.
    assert max(t for t, _ in results) < 2e-3
    assert sorted(i for _, i in results) == [0, 1, 2]
