"""A production-grade-shaped RPC framework over the simulated fabric.

This plays the role of Stubby in the paper: feature-rich (auth, ACLs,
deadlines, protocol versioning, metadata) and therefore *expensive* —
roughly 50 CPU-microseconds of framework and transport code across client
and server per call (§1, §2.1), which is exactly the cost CliqueMap's
RMA-based GET path avoids.

Calls are generators driven inside simulation processes::

    channel = connect(sim, fabric, client_host, server, principal)
    reply = yield from channel.call("Set", payload, deadline=10e-3)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from ..net import Fabric, Host, HostDownError, NetworkDropError
from ..sim import Simulator
from ..telemetry import NULL_SPAN
from .auth import Acl, AuthConfig, Authenticator, Principal
from .wire import Message, ProtocolVersion


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class RpcError(Exception):
    """Base class for RPC-layer failures."""

    retryable = False


class DeadlineExceededError(RpcError):
    """The call did not complete within its deadline."""

    retryable = True


class UnavailableError(RpcError):
    """The server is unreachable (crashed host, stopped server)."""

    retryable = True


class MethodNotFoundError(RpcError):
    """No handler registered for the requested method."""


class VersionMismatchError(RpcError):
    """Client protocol version is outside the server's supported range."""


class ApplicationError(RpcError):
    """The handler raised; carries the application-level cause."""

    def __init__(self, cause: BaseException):
        super().__init__(f"handler failed: {cause!r}")
        self.cause = cause


# ---------------------------------------------------------------------------
# Cost model and metrics
# ---------------------------------------------------------------------------

@dataclass
class RpcCostModel:
    """Per-call CPU charges for framework + transport code.

    Defaults sum to ~52 us across client and server, matching the paper's
    ">50 CPU-us even for an empty RPC".
    """

    client_send_cpu: float = 14e-6
    client_recv_cpu: float = 12e-6
    server_recv_cpu: float = 14e-6
    server_send_cpu: float = 12e-6
    per_kilobyte_cpu: float = 0.15e-6   # marshalling cost per KB each side

    def client_cpu(self, req_bytes: int, resp_bytes: int) -> float:
        return (self.client_send_cpu + self.client_recv_cpu +
                (req_bytes + resp_bytes) / 1024.0 * self.per_kilobyte_cpu)

    def server_cpu(self, req_bytes: int, resp_bytes: int) -> float:
        return (self.server_recv_cpu + self.server_send_cpu +
                (req_bytes + resp_bytes) / 1024.0 * self.per_kilobyte_cpu)


@dataclass
class RpcMetrics:
    """Byte/call counters; the maintenance figures plot these over time."""

    calls: int = 0
    errors: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def record(self, req_bytes: int, resp_bytes: int, ok: bool) -> None:
        self.calls += 1
        if not ok:
            self.errors += 1
        self.bytes_sent += req_bytes
        self.bytes_received += resp_bytes

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class HandlerContext:
    """What a handler sees about the call it is serving."""

    def __init__(self, server: "RpcServer", principal: Principal,
                 metadata: Dict[str, Any], version: ProtocolVersion,
                 span=NULL_SPAN):
        self.server = server
        self.sim = server.sim
        self.host = server.host
        self.principal = principal
        self.metadata = metadata
        self.version = version
        # The server-side telemetry span; handlers may attach children.
        self.span = span
        # Handlers set this to model large replies whose bytes aren't held.
        self.response_size_override: Optional[int] = None


Handler = Callable[[Dict[str, Any], HandlerContext], Generator]


class RpcServer:
    """A named service on a host: method handlers + ACL + version range."""

    def __init__(self, sim: Simulator, host: Host, name: str,
                 acl: Optional[Acl] = None,
                 min_version: ProtocolVersion = ProtocolVersion(1, 0),
                 max_version: ProtocolVersion = ProtocolVersion(1, 99),
                 cost_model: Optional[RpcCostModel] = None):
        self.sim = sim
        self.host = host
        self.name = name
        self.acl = acl or Acl()
        self.min_version = min_version
        self.max_version = max_version
        self.cost_model = cost_model or RpcCostModel()
        self.metrics = RpcMetrics()
        self._handlers: Dict[str, Handler] = {}
        self._serving = True

    def register(self, method: str, handler: Handler) -> None:
        """Register a generator handler: ``handler(payload, context)``."""
        self._handlers[method] = handler

    @property
    def serving(self) -> bool:
        return self._serving and self.host.alive

    def stop(self) -> None:
        self._serving = False

    def start(self) -> None:
        self._serving = True

    def handler_for(self, method: str) -> Handler:
        try:
            return self._handlers[method]
        except KeyError:
            raise MethodNotFoundError(
                f"{self.name} has no method {method!r}") from None


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------

_call_ids = itertools.count(1)


class RpcChannel:
    """A client's connection to one server."""

    def __init__(self, sim: Simulator, fabric: Fabric, client_host: Host,
                 server: RpcServer, principal: Principal,
                 version: ProtocolVersion = ProtocolVersion(1, 0),
                 authenticator: Optional[Authenticator] = None,
                 client_component: str = "rpc-client"):
        self.sim = sim
        self.fabric = fabric
        self.client_host = client_host
        self.server = server
        self.principal = principal
        self.version = version
        self.authenticator = authenticator or Authenticator(
            AuthConfig(enabled=False))
        self.client_component = client_component
        self.metrics = RpcMetrics()
        self._connected = False

    def connect(self) -> Generator:
        """Establish the channel: handshake RTTs + per-side auth CPU."""
        cost = self.authenticator.handshake_cost()
        if cost:
            yield self.client_host.execute(cost, self.client_component)
            yield self.server.host.execute(cost, f"rpc-server:{self.server.name}")
        for _ in range(self.authenticator.extra_rtts):
            yield from self.fabric.deliver(self.client_host, self.server.host, 128)
            yield from self.fabric.deliver(self.server.host, self.client_host, 128)
        self._connected = True

    def call(self, method: str, payload: Dict[str, Any],
             deadline: Optional[float] = None,
             metadata: Optional[Dict[str, Any]] = None,
             request_size: Optional[int] = None,
             trace=None) -> Generator:
        """Issue an RPC; returns the response payload or raises RpcError.

        ``request_size`` overrides the estimated payload size for requests
        whose bulk bytes are modeled rather than held (e.g. value blobs).
        ``trace`` (a telemetry span) receives an ``rpc.call`` child span
        covering the whole call, including the deadline-expiry path.
        """
        span = (trace or NULL_SPAN).child("rpc.call", method=method,
                                          server=self.server.name)
        inner = self.sim.process(
            self._call_inner(method, payload, metadata or {}, request_size,
                             span),
            name=f"rpc:{method}")
        try:
            if deadline is None:
                try:
                    result = yield inner
                except RpcError:
                    raise
                except (HostDownError, NetworkDropError) as exc:
                    raise UnavailableError(str(exc)) from exc
                return result

            timer = self.sim.timeout(deadline)
            try:
                event, value = yield self.sim.any_of([inner, timer])
            except (HostDownError, NetworkDropError) as exc:
                raise UnavailableError(str(exc)) from exc
            if event is inner:
                return value
            inner.defused = True
            span.annotate(deadline_exceeded=True)
            raise DeadlineExceededError(
                f"{method} exceeded deadline of {deadline * 1e3:.2f} ms")
        finally:
            span.finish()

    # -- internals -----------------------------------------------------------

    def _call_inner(self, method: str, payload: Dict[str, Any],
                    metadata: Dict[str, Any],
                    request_size: Optional[int],
                    span=NULL_SPAN) -> Generator:
        if not self._connected:
            yield from self.connect()

        request = Message(method=method, payload=payload, metadata=metadata,
                          version=self.version, size_override=request_size)
        req_bytes = request.wire_size

        # Client-side marshal + send.
        try:
            yield self.client_host.execute(
                self.cost_for_client(req_bytes, 0), self.client_component)
        except HostDownError as exc:
            raise UnavailableError(str(exc)) from exc

        yield from self.fabric.deliver(self.client_host, self.server.host,
                                       req_bytes, trace=span)

        ok = False
        resp_bytes = 0
        try:
            response, resp_bytes = yield from self._serve(request, req_bytes,
                                                          span)
            ok = True
        finally:
            self.metrics.record(req_bytes, resp_bytes, ok)
            self.server.metrics.record(req_bytes, resp_bytes, ok)

        yield from self.fabric.deliver(self.server.host, self.client_host,
                                       resp_bytes, trace=span)
        yield self.client_host.execute(
            self.cost_for_client(0, resp_bytes), self.client_component)
        return response.payload

    def cost_for_client(self, req_bytes: int, resp_bytes: int) -> float:
        model = self.server.cost_model
        half = (model.client_send_cpu if req_bytes else 0.0) + \
               (model.client_recv_cpu if resp_bytes else 0.0)
        return half + (req_bytes + resp_bytes) / 1024.0 * model.per_kilobyte_cpu

    def _serve(self, request: Message, req_bytes: int,
               span=NULL_SPAN) -> Generator:
        """Run the server side; returns ``(response, resp_bytes)``. Each
        envelope is sized once, where it is built."""
        server = self.server
        if not server.serving:
            # A connection reset: a short wait, then failure back to client.
            yield self.sim.delay(50e-6)
            raise UnavailableError(f"{server.name} is not serving")
        if not request.version.compatible_with(server.min_version,
                                               server.max_version):
            raise VersionMismatchError(
                f"client {request.version} outside server range "
                f"[{server.min_version}, {server.max_version}]")
        server.acl.check(self.principal, request.method)
        handler = server.handler_for(request.method)

        serve_span = span.child("backend.serve", host=server.host.name,
                                method=request.method)
        component = f"rpc-server:{server.name}"
        model = server.cost_model
        try:
            yield server.host.execute(
                model.server_recv_cpu +
                req_bytes / 1024.0 * model.per_kilobyte_cpu,
                component)

            context = HandlerContext(server, self.principal, request.metadata,
                                     request.version, span=serve_span)
            try:
                result = yield from handler(request.payload, context)
            except RpcError:
                raise
            except HostDownError as exc:
                raise UnavailableError(str(exc)) from exc
            except Exception as exc:  # noqa: BLE001 - application failure
                raise ApplicationError(exc) from exc

            response = Message(method=request.method, payload=result or {},
                               version=self.version,
                               size_override=context.response_size_override)
            resp_bytes = response.wire_size
            yield server.host.execute(
                model.server_send_cpu +
                resp_bytes / 1024.0 * model.per_kilobyte_cpu,
                component)
        finally:
            serve_span.finish()
        return response, resp_bytes


def connect(sim: Simulator, fabric: Fabric, client_host: Host,
            server: RpcServer, principal: Principal,
            **kwargs: Any) -> RpcChannel:
    """Convenience constructor for an :class:`RpcChannel`."""
    return RpcChannel(sim, fabric, client_host, server, principal, **kwargs)
