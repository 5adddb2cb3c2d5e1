"""Named-pipe IPC model for language shims (§6.2).

Each non-C++ language shim launches the real C++ CliqueMap client in a
subprocess and talks to it over named pipes — a simple abstraction every
language has. A pipe transfer costs a syscall/wakeup latency plus
serialization at a copy bandwidth; concurrent messages through one pipe
serialize FIFO.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim import Resource, Simulator


class NamedPipe:
    """A unidirectional byte pipe between two processes on one host."""

    def __init__(self, sim: Simulator, latency: float,
                 bytes_per_sec: float, name: str = ""):
        if bytes_per_sec <= 0:
            raise ValueError("pipe bandwidth must be positive")
        self.sim = sim
        self.latency = latency
        self.bytes_per_sec = bytes_per_sec
        self.name = name
        self._server = Resource(sim, capacity=1, name=f"pipe:{name}")
        self.messages = 0
        self.bytes_carried = 0

    def transfer(self, nbytes: int) -> Any:
        """Move one message of ``nbytes`` through the pipe: ``yield
        pipe.transfer(n)`` from a process (see :meth:`Resource.hold`)."""
        return self._server.hold(self.latency + nbytes / self.bytes_per_sec,
                                 self._carried, (nbytes,))

    def _carried(self, nbytes: int) -> None:
        self.messages += 1
        self.bytes_carried += nbytes


class PipePair:
    """Request and response pipes between a shim and its subprocess."""

    def __init__(self, sim: Simulator, latency: float, bytes_per_sec: float,
                 name: str = ""):
        self.to_subprocess = NamedPipe(sim, latency, bytes_per_sec,
                                       f"{name}.req")
        self.from_subprocess = NamedPipe(sim, latency, bytes_per_sec,
                                         f"{name}.resp")

    def round_trip(self, request_bytes: int,
                   response_bytes: int) -> Generator:
        yield self.to_subprocess.transfer(request_bytes)
        yield self.from_subprocess.transfer(response_bytes)
