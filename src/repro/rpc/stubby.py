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

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, Optional

from ..net import Fabric, Host, HostDownError, NetworkDropError
from ..sim import Simulator
from ..sim.core import PARKED, Process
from ..telemetry import NULL_SPAN
from .auth import Acl, Authenticator, Principal
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
# Costs and metrics
# ---------------------------------------------------------------------------

# Per-call CPU charges for framework + transport code. They sum to ~52 us
# across client and server, matching the paper's ">50 CPU-us even for an
# empty RPC".
_CLIENT_SEND_CPU = 14e-6
_CLIENT_RECV_CPU = 12e-6
_SERVER_RECV_CPU = 14e-6
_SERVER_SEND_CPU = 12e-6
_PER_KILOBYTE_CPU = 0.15e-6      # marshalling cost per KB each side


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

    def __init__(self, sim: Simulator, span=NULL_SPAN):
        self.sim = sim
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
                 max_version: ProtocolVersion = ProtocolVersion(1, 99)):
        self.sim = sim
        self.host = host
        self.name = name
        self.acl = acl or Acl()
        self.min_version = min_version
        self.max_version = max_version
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
        self.authenticator = authenticator or Authenticator(enabled=False)
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
            yield self.fabric.send(self.client_host, self.server.host, 128)
            yield self.fabric.send(self.server.host, self.client_host, 128)
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
        This is :meth:`start` with its caller parked until ``done``.
        """
        proc = self.sim._active
        proc._token = proc._waiting_on = token = proc._token + 1
        self.start(method, payload, deadline, partial(proc._on_wake, token),
                   request_size, trace, metadata)
        try:
            return (yield PARKED)
        finally:
            # A failed call's exception holds this frame in its traceback;
            # the frame must not hold the process that holds the exception.
            proc = None

    def start(self, method: str, payload: Dict[str, Any],
              deadline: Optional[float],
              done: Callable[[Any, Optional[BaseException]], Any],
              request_size: Optional[int] = None, trace=None,
              metadata: Optional[Dict[str, Any]] = None) -> None:
        """Issue an RPC with no caller process: ``done(reply, None)`` or
        ``done(None, error)`` runs exactly once.

        The call is one process raced against one raw heap entry at
        ``now + deadline``. The first to fire decides, and ``done`` runs
        one zero-delay hop later, as a waiter on ``any_of`` of the two
        would resume; with no deadline it runs as the process ends. The
        server side keeps running past an expired deadline, and a
        failure it ends with then is defused.
        """
        sim = self.sim
        span = (trace or NULL_SPAN).child("rpc.call", method=method,
                                          server=self.server.name)
        inner = sim.process(
            self._call_inner(method, payload, metadata or {}, request_size,
                             span),
            name=f"rpc:{method}")
        pending = [span, done]      # emptied by whichever fires first

        def settle(span, done, reply, exc: Optional[BaseException]) -> None:
            span.finish()
            done(reply, exc)

        def landed(proc: Process) -> None:
            if not pending:
                return      # expired; being a callback defuses a failure
            reply, exc = (proc._value, None) if proc._ok else \
                (None, proc._value)
            if isinstance(exc, (HostDownError, NetworkDropError)):
                cause, exc = exc, UnavailableError(str(exc))
                exc.__cause__ = cause
            args = (*pending, reply, exc)
            pending.clear()
            if deadline is None:
                settle(*args)
            else:
                sim.call_soon(settle, *args)

        def expired() -> None:
            if pending:
                pending[0].annotate(deadline_exceeded=True)
                error = DeadlineExceededError(
                    f"{method} exceeded deadline of {deadline * 1e3:.2f} ms")
                sim.call_soon(settle, *pending, None, error)
                pending.clear()

        inner.callbacks.append((landed, ()))
        if deadline is not None:
            sim.call_in(deadline, expired)

    # -- internals -----------------------------------------------------------

    def _call_inner(self, method: str, payload: Dict[str, Any],
                    metadata: Dict[str, Any],
                    request_size: Optional[int],
                    span=NULL_SPAN) -> Generator:
        """The call's process: client send, the server side, the reply.
        Each envelope is sized once, where it is built."""
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

        yield self.fabric.send(self.client_host, self.server.host,
                               req_bytes, trace=span)

        server = self.server
        serve_span = NULL_SPAN
        ok = False
        resp_bytes = 0
        try:
            if not server.serving:
                # A connection reset: a short wait, then failure back to
                # the client.
                yield self.sim.delay(50e-6)
                raise UnavailableError(f"{server.name} is not serving")
            if not self.version.compatible_with(server.min_version,
                                                server.max_version):
                raise VersionMismatchError(
                    f"client {self.version} outside server range "
                    f"[{server.min_version}, {server.max_version}]")
            server.acl.check(self.principal, method)
            handler = server.handler_for(method)

            serve_span = span.child("backend.serve", host=server.host.name,
                                    method=method)
            component = f"rpc-server:{server.name}"
            yield server.host.execute(
                _SERVER_RECV_CPU + req_bytes / 1024.0 * _PER_KILOBYTE_CPU,
                component)
            context = HandlerContext(self.sim, serve_span)
            try:
                result = yield from handler(payload, context)
            except RpcError:
                raise
            except HostDownError as exc:
                raise UnavailableError(str(exc)) from exc
            except Exception as exc:  # noqa: BLE001 - application failure
                raise ApplicationError(exc) from exc

            response = Message(method=method, payload=result or {},
                               version=self.version,
                               size_override=context.response_size_override)
            resp_bytes = response.wire_size
            yield server.host.execute(
                _SERVER_SEND_CPU + resp_bytes / 1024.0 * _PER_KILOBYTE_CPU,
                component)
            ok = True
        finally:
            serve_span.finish()
            self.metrics.record(req_bytes, resp_bytes, ok)
            server.metrics.record(req_bytes, resp_bytes, ok)

        yield self.fabric.send(server.host, self.client_host,
                               resp_bytes, trace=span)
        yield self.client_host.execute(
            self.cost_for_client(0, resp_bytes), self.client_component)
        return response.payload

    def cost_for_client(self, req_bytes: int, resp_bytes: int) -> float:
        half = (_CLIENT_SEND_CPU if req_bytes else 0.0) + \
               (_CLIENT_RECV_CPU if resp_bytes else 0.0)
        return half + (req_bytes + resp_bytes) / 1024.0 * _PER_KILOBYTE_CPU


def connect(sim: Simulator, fabric: Fabric, client_host: Host,
            server: RpcServer, principal: Principal,
            **kwargs: Any) -> RpcChannel:
    """Convenience constructor for an :class:`RpcChannel`."""
    return RpcChannel(sim, fabric, client_host, server, principal, **kwargs)
