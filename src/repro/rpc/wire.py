"""Wire-format modeling: message envelopes, sizes, protocol versioning.

The simulation does not serialize real protobufs; what matters to the
reproduction is (a) how many bytes cross the fabric, (b) how much CPU the
framework charges, and (c) that protocol *versioning* behaves like a
production RPC stack: servers advertise a supported version range, clients
carry a version, and unknown payload fields are carried through untouched
(forward/backward compatibility). CliqueMap leans on that tolerance for
its hundred-plus post-deployment protocol changes (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

ENVELOPE_OVERHEAD_BYTES = 96  # headers, auth token, method name, tracing


def estimate_size(value: Any) -> int:
    """Rough serialized size, in bytes, of a payload value."""
    # The scalars handlers actually send, by exact type; then containers;
    # then the isinstance ladder for scalar subclasses and other buffers
    # (``bool`` cannot be subclassed, so it never reaches the ``int`` rung).
    kind = type(value)
    if kind is bytes:
        return len(value)
    if kind is str:
        return len(value.encode("utf-8"))
    if kind is int or kind is float:
        return 8
    if value is None or kind is bool:
        return 1
    if isinstance(value, dict):
        size = 0
        for k, v in value.items():
            size += estimate_size(k) + estimate_size(v) + 2
        return size
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_size(v) + 2 for v in value)
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    # Dataclass-ish objects with __dict__; fall back to repr length.
    inner = getattr(value, "__dict__", None)
    if inner is not None:
        return estimate_size(inner)
    return len(repr(value))


@dataclass(frozen=True, order=True)
class ProtocolVersion:
    """A (major, minor) protocol version."""

    major: int = 1
    minor: int = 0

    def compatible_with(self, lo: "ProtocolVersion",
                        hi: "ProtocolVersion") -> bool:
        return lo <= self <= hi

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}"


@dataclass
class Message:
    """An RPC request or response envelope."""

    method: str
    payload: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)
    version: ProtocolVersion = field(default_factory=ProtocolVersion)
    # Explicit size override for payloads whose bytes are modeled, not held.
    size_override: Optional[int] = None

    @property
    def wire_size(self) -> int:
        if self.size_override is not None:
            body = self.size_override
        else:
            body = estimate_size(self.payload)
        return ENVELOPE_OVERHEAD_BYTES + body + estimate_size(self.metadata)
