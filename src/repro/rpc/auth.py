"""Application-layer authentication (ALTS-like) for the RPC framework.

Production Stubby authenticates application-to-application with ALTS and
enforces per-RPC ACLs (§2.1). The simulation models the parts that matter
to CliqueMap: a handshake cost when a channel is established, a principal
identity carried on every call, and per-method ACL checks that reject
unauthenticated callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set


@dataclass(frozen=True)
class Principal:
    """An authenticated application identity."""

    name: str

    def __str__(self) -> str:
        return self.name


class PermissionDeniedError(Exception):
    """The caller's principal is not authorized for the method."""

    def __init__(self, principal: Principal, method: str):
        super().__init__(f"{principal} is not allowed to call {method}")
        self.principal = principal
        self.method = method


@dataclass
class Acl:
    """Per-method allow-lists; an empty ACL allows every principal."""

    # method -> allowed principal names; "*" entry applies to all methods.
    rules: Dict[str, Set[str]] = field(default_factory=dict)
    # method -> allowed principal-name prefixes (for fleets of internal
    # principals like "repair@backend-3").
    prefix_rules: Dict[str, Set[str]] = field(default_factory=dict)

    def allow(self, method: str, principal_name: str) -> None:
        self.rules.setdefault(method, set()).add(principal_name)

    def allow_prefix(self, method: str, principal_prefix: str) -> None:
        self.prefix_rules.setdefault(method, set()).add(principal_prefix)

    def check(self, principal: Principal, method: str) -> None:
        if not self.rules and not self.prefix_rules:
            return
        allowed = self.rules.get(method, set()) | self.rules.get("*", set())
        if principal.name in allowed:
            return
        prefixes = self.prefix_rules.get(method, set()) | \
            self.prefix_rules.get("*", set())
        if any(principal.name.startswith(p) for p in prefixes):
            return
        raise PermissionDeniedError(principal, method)


#: Per-side CPU for the ALTS handshake, and its extra round trips at
#: connect time.
HANDSHAKE_CPU = 30e-6
HANDSHAKE_RTTS = 2


class Authenticator:
    """Issues channel credentials after a simulated handshake."""

    def __init__(self, enabled: bool = True):
        # Whether channel establishment runs the handshake.
        self.enabled = enabled
        self.handshakes = 0

    def handshake_cost(self) -> float:
        """CPU seconds charged to each side at connect time."""
        if not self.enabled:
            return 0.0
        self.handshakes += 1
        return HANDSHAKE_CPU

    @property
    def extra_rtts(self) -> int:
        return HANDSHAKE_RTTS if self.enabled else 0
