"""Stubby-like RPC framework: channels, servers, auth, versioning."""

from .auth import Acl, Authenticator, PermissionDeniedError, Principal
from .stubby import (ApplicationError, DeadlineExceededError, HandlerContext,
                     MethodNotFoundError, RpcChannel, RpcError,
                     RpcMetrics, RpcServer, UnavailableError,
                     VersionMismatchError, connect)
from .wire import ENVELOPE_OVERHEAD_BYTES, Message, ProtocolVersion, estimate_size

__all__ = [
    "Acl", "Authenticator", "PermissionDeniedError", "Principal",
    "ApplicationError", "DeadlineExceededError", "HandlerContext",
    "MethodNotFoundError", "RpcChannel", "RpcError",
    "RpcMetrics", "RpcServer", "UnavailableError", "VersionMismatchError",
    "connect",
    "ENVELOPE_OVERHEAD_BYTES", "Message", "ProtocolVersion", "estimate_size",
]
