"""Transport abstraction: one-sided reads over the simulated fabric.

Concrete transports (generic RDMA, Pony Express, 1RMA) share the endpoint
registry and the failure envelope: reads against a crashed host time out
with :class:`RemoteHostDownError`; reads against revoked/unknown regions
fail with :class:`RegionRevokedError` carried back to the client, which is
what triggers CliqueMap's RPC-based re-handshake retry path (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

from ..net import Fabric, Host
from ..sim import Simulator
from .memory import (RegionRevokedError, RemoteHostDownError, RmaEndpoint,
                     RmaError)

RMA_REQUEST_BYTES = 64          # a one-sided read command on the wire
RMA_RESPONSE_HEADER_BYTES = 32  # completion/validation header on responses
# A batched read carries one command header plus a compact descriptor
# (region, offset, size) per entry; the response carries a per-entry
# status word so partial failures can be reported without a round trip.
RMA_BATCH_ENTRY_BYTES = 16
RMA_BATCH_STATUS_BYTES = 8

#: One entry of a batched read: ``(region_id, offset, size)``.
ReadRequest = Tuple[int, int, int]
#: One result of a batched read: snapshot bytes, or the per-entry error.
ReadResult = Union[bytes, RmaError]


@dataclass
class TransportCounters:
    """Operation counters per transport."""

    reads: int = 0
    scars: int = 0
    messages: int = 0
    failures: int = 0
    corrupted: int = 0
    bytes_fetched: int = 0
    batched_reads: int = 0   # coalesced multi-entry ops on the wire
    batched_keys: int = 0    # entries carried inside those ops


class Transport:
    """Base transport: endpoint registry + failure handling."""

    name = "base"
    supports_scar = False

    def __init__(self, sim: Simulator, fabric: Fabric,
                 op_timeout: float = 200e-6):
        self.sim = sim
        self.fabric = fabric
        self.op_timeout = op_timeout
        self.endpoints: Dict[str, RmaEndpoint] = {}
        self.counters = TransportCounters()
        # Optional MetricsRegistry; the Cell wires this up so batched-op
        # amortization is observable per transport.
        self.registry = None
        self._batch_handles = None

    def attach(self, host: Host) -> RmaEndpoint:
        """Expose a host for RMA access; returns its endpoint."""
        endpoint = self.endpoints.get(host.name)
        if endpoint is None:
            endpoint = RmaEndpoint(host)
            self.endpoints[host.name] = endpoint
        return endpoint

    def _remote_host(self, server_name: str) -> Host:
        # Unknown endpoint: the request's bytes leave the client anyway.
        endpoint = self.endpoints.get(server_name)
        if endpoint is not None:
            return endpoint.host
        return self.fabric.host(server_name)

    def _check_remote(self, server_name: str,
                      client_host: Host = None) -> Optional[RmaEndpoint]:
        """The live endpoint an op has reached; ``None`` for a dead one
        (callers then ``yield from self._remote_down(server_name)``).

        RMA protocols are not applicable across the WAN (Table 1): a
        cross-zone op fails immediately, pushing clients to the RPC
        lookup fallback."""
        endpoint = self.endpoints.get(server_name)
        if endpoint is None or not endpoint.host.alive:
            return None
        if client_host is not None and \
                getattr(client_host, "zone", "local") != \
                getattr(endpoint.host, "zone", "local"):
            self.counters.failures += 1
            raise RemoteHostDownError(
                f"RMA to {server_name} crosses zones; use RPC for WAN")
        return endpoint

    def _remote_down(self, server_name: str) -> Generator:
        """Fail like a timed-out op: the remote is dead (a generator)."""
        self.counters.failures += 1
        yield self.sim.delay(self.op_timeout)
        raise RemoteHostDownError(f"op to {server_name} timed out")

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """One-sided read; subclasses implement the timing.

        ``trace`` (an optional telemetry span) receives fabric/server
        child spans so an op can be decomposed layer by layer.
        """
        raise NotImplementedError

    def read_multi(self, client_host: Host, server_name: str,
                   requests: Sequence[ReadRequest],
                   trace=None) -> Generator:
        """Coalesced one-sided read of many regions on *one* server.

        Returns a list aligned with ``requests``; each element is either
        the snapshot bytes or the :class:`RmaError` that entry hit
        (exceptions-as-values, so one revoked region never discards its
        siblings' data). Whole-batch failures — dead host, partition —
        still raise, exactly like :meth:`read`.

        Subclasses implement it by putting all descriptors in one
        fabric transfer, amortizing the per-op costs (§7.1).
        """
        raise NotImplementedError

    def _read_entries(self, endpoint: RmaEndpoint,
                      requests: Sequence[ReadRequest]) -> List[ReadResult]:
        """Snapshot every entry of a batch, per-entry errors as values."""
        results: List[ReadResult] = []
        for region_id, offset, size in requests:
            try:
                window = endpoint.resolve(region_id)
                results.append(window.read(offset, size))
            except RmaError as exc:
                self.counters.failures += 1
                results.append(exc)
        return results

    def _observe_batch(self, n: int, engine_seconds: float) -> None:
        """Account one coalesced op covering ``n`` entries."""
        self.counters.batched_reads += 1
        self.counters.batched_keys += n
        registry = self.registry
        if registry is None or n <= 0:
            return
        handles = self._batch_handles
        if handles is None or handles[0] is not registry:
            # Cell assigns the registry after construction; bind the two
            # series once per registry instead of resolving per batch.
            handles = self._batch_handles = (
                registry,
                registry.counter(
                    "cliquemap_batched_keys_total",
                    "Keys carried inside coalesced multi-entry transport "
                    "ops").labels(transport=self.name),
                registry.histogram(
                    "cliquemap_batch_amortized_engine_cpu_seconds",
                    "Per-key engine/NIC CPU of a coalesced op "
                    "(total / keys)").labels(transport=self.name))
        handles[1].inc(n)
        handles[2].observe(engine_seconds / n)

    @staticmethod
    def _batch_request_bytes(n: int) -> int:
        return RMA_REQUEST_BYTES + RMA_BATCH_ENTRY_BYTES * n

    @staticmethod
    def _batch_response_bytes(results: Sequence[ReadResult]) -> int:
        payload = sum(len(r) for r in results if isinstance(r, bytes))
        return (payload + RMA_RESPONSE_HEADER_BYTES +
                RMA_BATCH_STATUS_BYTES * len(results))

    def _corrupt_largest(self, results: List[ReadResult],
                         corrupted) -> List[ReadResult]:
        """Apply a response-leg corruption to the batch's largest entry.

        A flipped byte lands somewhere in the coalesced payload; modeling
        it in the dominant entry keeps the per-batch corruption rate equal
        to the per-delivery rate without corrupting every sibling.
        """
        if not corrupted:
            return results
        victim = None
        for i, result in enumerate(results):
            if isinstance(result, bytes) and result and (
                    victim is None or
                    len(result) > len(results[victim])):
                victim = i
        if victim is not None:
            results[victim] = self._maybe_corrupt(results[victim], corrupted)
        return results

    def _resolve_or_fail(self, endpoint: RmaEndpoint, region_id: int):
        try:
            return endpoint.resolve(region_id)
        except RegionRevokedError:
            self.counters.failures += 1
            raise

    def _maybe_corrupt(self, data: bytes, corrupted) -> bytes:
        """Flip a payload byte when the response delivery was corrupted.

        ``corrupted`` is the return value of ``fabric.deliver`` for the
        response leg. One-sided responses carry raw snapshot bytes with
        no link-level integrity, so an in-flight corruption reaches the
        client and must be caught by CliqueMap's own checksum/validation
        path (§5.1). Request legs and RPC/message payloads are not
        corrupted: requests are tiny commands and the RPC transport has
        its own integrity layer.
        """
        if not corrupted or not data:
            return data
        self.counters.corrupted += 1
        return self.fabric.corrupt(data)
