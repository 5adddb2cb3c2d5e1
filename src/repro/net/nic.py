"""NIC and link models: serialization delay, FIFO queueing, byte counters.

A :class:`Link` is a single serializing server kept as arithmetic: a
transfer of N wire bytes accepted at ``now`` leaves at ``max(now,
free_at) + N / rate``, the instant a FIFO ``Resource.hold`` of ``N /
rate`` would complete whether it queued or not, so accepting a transfer
schedules nothing. Each host gets a NIC with an independent egress and
ingress link — which is exactly what makes *incast* (many senders
converging on one receiver's ingress link, Fig 12) and *antagonist load*
(a bandwidth hog on one server's NIC, Fig 11) emerge naturally.
"""

from __future__ import annotations

import math

from ..sim import Simulator


def gbps(value: float) -> float:
    """Convert gigabits/second to bytes/second."""
    return value * 1e9 / 8.0


#: Framing: payloads are split into MTU-sized frames, 5KB as in the
#: paper's testbed (§7.2.4), each with a header/trailer overhead.
MTU_BYTES = 5000
HEADER_BYTES = 66


def wire_bytes(payload: int) -> int:
    """Total bytes on the wire for a payload, including frame headers."""
    if payload <= 0:
        return HEADER_BYTES
    frames = math.ceil(payload / MTU_BYTES)
    return payload + frames * HEADER_BYTES


class Link:
    """A unidirectional serializing link of fixed rate: a FIFO server."""

    def __init__(self, sim: Simulator, rate_bytes_per_sec: float,
                 name: str = ""):
        if rate_bytes_per_sec <= 0:
            raise ValueError("link rate must be positive")
        self.sim = sim
        self.name = name
        self.rate = rate_bytes_per_sec
        self.free_at = 0.0          # when the last accepted byte leaves
        self.bytes_carried = 0

    def reserve(self, wire_bytes: int) -> float:
        """Accept ``wire_bytes`` now; returns the instant the last one
        leaves. Accepted bytes are sent whatever becomes of their sender
        (the NIC sends the frame) and count in ``bytes_carried`` at once."""
        start = self.sim.now
        if self.free_at > start:
            start = self.free_at
        self.free_at = done = start + wire_bytes / self.rate
        self.bytes_carried += wire_bytes
        return done


class Nic:
    """A host's network interface: an egress link and an ingress link."""

    def __init__(self, sim: Simulator, host_name: str,
                 rate_bytes_per_sec: float):
        self.sim = sim
        self.host_name = host_name
        self.egress = Link(sim, rate_bytes_per_sec, f"{host_name}.egress")
        self.ingress = Link(sim, rate_bytes_per_sec, f"{host_name}.ingress")

    @property
    def bytes_sent(self) -> int:
        return self.egress.bytes_carried

    @property
    def bytes_received(self) -> int:
        return self.ingress.bytes_carried
