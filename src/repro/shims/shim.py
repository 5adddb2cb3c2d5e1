"""Language shims: Java/Go/Python access to CliqueMap (§6.2, Fig 6).

Rather than maintaining per-language client implementations (slow to
evolve, error-prone native invocation), each shim is a lightweight
wrapper that forwards operations over named pipes to the C++ client
running as a subprocess. The tradeoff: per-op marshal CPU in the shim's
runtime plus two pipe crossings, in exchange for one client codebase.

Java additionally uses a shared-memory fast path (the paper's footnote 4),
modeled as a lower pipe latency and higher copy bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..core import CliqueMapClient, GetResult, MutationResult
from .pipe import PipePair


@dataclass(frozen=True)
class LanguageProfile:
    """Per-language shim cost constants."""

    name: str
    uses_pipes: bool
    marshal_cpu: float          # fixed per-op CPU in the shim runtime
    per_kilobyte_cpu: float     # (de)serialization per KB
    pipe_latency: float         # one-way pipe/syscall latency
    pipe_bytes_per_sec: float


# Ordered as in Figure 6: cpp fastest, python slowest. Java benefits from
# the shared-memory acceleration; Go pays full pipe costs but has a cheap
# runtime; Python's marshal costs dominate.
PROFILES: Dict[str, LanguageProfile] = {
    "cpp": LanguageProfile("cpp", uses_pipes=False, marshal_cpu=0.0,
                           per_kilobyte_cpu=0.0, pipe_latency=0.0,
                           pipe_bytes_per_sec=1.0),
    "java": LanguageProfile("java", uses_pipes=True, marshal_cpu=5e-6,
                            per_kilobyte_cpu=0.4e-6, pipe_latency=1.2e-6,
                            pipe_bytes_per_sec=6e9),
    "go": LanguageProfile("go", uses_pipes=True, marshal_cpu=8e-6,
                          per_kilobyte_cpu=0.6e-6, pipe_latency=3.5e-6,
                          pipe_bytes_per_sec=2e9),
    "py": LanguageProfile("py", uses_pipes=True, marshal_cpu=55e-6,
                          per_kilobyte_cpu=4.0e-6, pipe_latency=5e-6,
                          pipe_bytes_per_sec=0.8e9),
}

REQUEST_OVERHEAD_BYTES = 48   # op header on the pipe protocol
RESPONSE_OVERHEAD_BYTES = 48


class LanguageShim:
    """A non-C++ application's handle to CliqueMap.

    Wraps the (C++) :class:`CliqueMapClient` running in a subprocess on
    the same host; every operation pays shim marshal CPU and a pipe round
    trip, then delegates to the real client.
    """

    def __init__(self, client: CliqueMapClient, language: str):
        if language not in PROFILES:
            raise ValueError(f"unsupported shim language {language!r}; "
                             f"have {sorted(PROFILES)}")
        self.client = client
        self.sim = client.sim
        self.profile = PROFILES[language]
        self.pipes: Optional[PipePair] = None
        if self.profile.uses_pipes:
            self.pipes = PipePair(self.sim, self.profile.pipe_latency,
                                  self.profile.pipe_bytes_per_sec,
                                  name=f"shim-{language}")
        self.ops = 0

    @property
    def component(self) -> str:
        return f"shim:{self.profile.name}"

    def _shim_cpu(self, payload_bytes: int) -> Generator:
        profile = self.profile
        if profile.marshal_cpu <= 0:
            return
        yield self.client.host.execute(
            profile.marshal_cpu +
            payload_bytes / 1024.0 * profile.per_kilobyte_cpu,
            self.component)

    def _cross(self, request_bytes: int, response_bytes: int) -> Generator:
        if self.pipes is not None:
            yield from self.pipes.round_trip(
                request_bytes + REQUEST_OVERHEAD_BYTES,
                response_bytes + RESPONSE_OVERHEAD_BYTES)

    # -- operations ---------------------------------------------------------

    def get(self, key: bytes, deadline: Optional[float] = None) -> Generator:
        """GET through the shim; returns the C++ client's GetResult."""
        yield from self._shim_cpu(len(key))
        yield from self._cross(len(key), 0)
        result: GetResult = yield from self.client.get(key, deadline)
        response_bytes = len(result.value) if result.value else 0
        yield from self._cross(0, response_bytes)
        yield from self._shim_cpu(response_bytes)
        self.ops += 1
        return result

    def set(self, key: bytes, value: bytes,
            deadline: Optional[float] = None) -> Generator:
        yield from self._shim_cpu(len(key) + len(value))
        yield from self._cross(len(key) + len(value), 0)
        result: MutationResult = yield from self.client.set(key, value,
                                                            deadline)
        yield from self._cross(0, 16)
        yield from self._shim_cpu(16)
        self.ops += 1
        return result


def make_shim(client: CliqueMapClient, language: str) -> LanguageShim:
    """Build a shim (or a pass-through for cpp) over a connected client."""
    return LanguageShim(client, language)
