"""Transport abstraction: one wire exchange over the simulated fabric.

Every op — ``read``, ``read_multi``, Pony's ``scar`` and ``message`` — is
the same exchange (:meth:`Transport._exchange`); concrete transports
(generic RDMA, Pony Express, 1RMA) declare what differs per op and share
the endpoint registry and the failure envelope: ops against a crashed
host time out with :class:`RemoteHostDownError`; reads against
revoked/unknown regions fail with :class:`RegionRevokedError` carried
back to the client, which is what triggers CliqueMap's RPC-based
re-handshake retry path (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, Union)

from ..net import Fabric, Host
from ..sim import Request, Simulator
from ..telemetry import NULL_SPAN, tally
from .memory import RemoteHostDownError, RmaEndpoint, RmaError

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
    """Operation counters per transport (a view: see
    :attr:`Transport.counters`)."""

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
        # Every TransportCounters field but batched_keys, which is the
        # tally of ``cliquemap_batched_keys_total`` (see adopt_counts).
        self._counts = dict.fromkeys(
            ("reads", "scars", "messages", "failures", "corrupted",
             "bytes_fetched", "batched_reads"), 0)
        self._batched_keys = tally()
        # The batch-CPU histogram family, once a registry adopts us.
        self._batch_cpu = None

    @property
    def counters(self) -> TransportCounters:
        """Built per read; ``batched_keys`` is derived from its tally."""
        return TransportCounters(**self._counts,
                                 batched_keys=self._batched_keys[()])

    def adopt_counts(self, registry) -> None:
        """Count batched keys and observe batch CPU into ``registry``."""
        registry.adopt("cliquemap_batched_keys_total",
                       "Keys carried inside coalesced multi-entry "
                       "transport ops", self._batched_keys, listed=False,
                       transport=self.name)
        self._batch_cpu = registry.histogram(
            "cliquemap_batch_amortized_engine_cpu_seconds",
            "Per-key engine/NIC CPU of a coalesced op (total / keys)",
            listed=False)

    def attach(self, host: Host) -> RmaEndpoint:
        """Expose a host for RMA access; returns its endpoint."""
        endpoint = self.endpoints.get(host.name)
        if endpoint is None:
            endpoint = RmaEndpoint(host)
            self.endpoints[host.name] = endpoint
        return endpoint

    def _check_remote(self, server_name: str,
                      client_host: Host) -> Optional[RmaEndpoint]:
        """The live endpoint an op has reached; ``None`` for a dead one.

        RMA protocols are not applicable across the WAN (Table 1): a
        cross-zone op fails immediately, pushing clients to the RPC
        lookup fallback."""
        endpoint = self.endpoints.get(server_name)
        if endpoint is None or not endpoint.host.alive:
            return None
        if client_host.zone != endpoint.host.zone:
            raise RemoteHostDownError(
                f"RMA to {server_name} crosses zones; use RPC for WAN")
        return endpoint

    def _exchange(self, client_host: Host, server_name: str, trace,
                  entries: int, request_bytes: int, tx_cost: float,
                  serve: Callable[[RmaEndpoint, Any], Generator],
                  land: Optional[Callable[[Any], Any]],
                  book: Callable[[Any, int], None]) -> Generator:
        """Run one op: request -> serve -> response; returns its payload.

        Every public op *returns* this generator (no frame of its own: a
        leg's every resume walks the whole ``yield from`` chain, client ->
        ``_rma_leg`` -> here; each delivery is one parked
        ``fabric.send`` wait, with no frame either) and declares only
        what differs (docs/ARCHITECTURE.md §4): ``entries``,
        0 for a single op (``nic.tx`` / ``nic.rx`` spans) or n for a
        coalesced one (one ``nic.batch`` span, ``parts=n`` transfers);
        request bytes and tx cost; ``serve(endpoint, span)``, a generator
        that opens ``backend.serve``, snapshots memory and returns
        ``(payload, response_bytes, rx_cost)`` — or raises, failing the op
        with no response leg; ``land(payload)``, how an in-flight
        corruption lands (``None``: never); ``book(payload,
        response_bytes)``, its counters. Transports differ in three hooks:
        :meth:`_initiator`, :meth:`_admit`, :meth:`_stamp`.
        """
        trace = trace or NULL_SPAN
        if entries:
            trace = around = trace.child("nic.batch", entries=entries)
        else:
            around = trace.child("nic.tx")
        cpu = self._initiator(client_host)
        yield cpu(tx_cost)
        slot = self._admit(client_host)
        try:
            if slot is not None:
                yield slot
                issued_at = self.sim.now
            if not entries:
                around.finish()
            # Unknown endpoint: the request's bytes leave the client anyway.
            endpoint = self.endpoints.get(server_name)
            yield self.fabric.send(
                client_host, endpoint.host if endpoint is not None
                else self.fabric.host(server_name),
                request_bytes, trace, entries or 1)
            endpoint = self._check_remote(server_name, client_host)
            if endpoint is None:  # dead: fail like a timed-out op
                yield self.sim.delay(self.op_timeout)
                raise RemoteHostDownError(f"op to {server_name} timed out")
            payload, response_bytes, rx_cost = yield from serve(endpoint,
                                                                trace)
            corrupted = yield self.fabric.send(
                endpoint.host, client_host, response_bytes, trace,
                entries or 1)
        except RmaError:
            # The one rule: an op the transport fails counts once, here
            # (a batch's failed entries in _snapshot_each; a dropped
            # delivery is the fabric's to count).
            self._counts["failures"] += 1
            raise
        finally:
            # Admission bounds what is in flight, not completion work:
            # released when the response arrives or the op fails.
            if slot is not None:
                slot.resource.release(slot)
        if corrupted and land is not None:
            payload = land(payload)
        if slot is not None:
            self._stamp(issued_at)
        if not entries:
            around = trace.child("nic.rx")
        yield cpu(rx_cost)
        around.finish()
        book(payload, response_bytes)
        return payload

    def _initiator(self, host: Host) -> Callable[[float], Any]:
        """Hook: how ``host`` spends CPU posting and reaping an op, as
        ``seconds -> awaitable``. Hardware NICs: a thread on a host core."""
        return lambda seconds: host.execute(seconds, "rma-client")

    def _admit(self, host: Host) -> Optional[Request]:
        """Hook: a claim on an in-flight slot, taken after posting (a
        :class:`~repro.sim.Request`), or ``None``: nothing bounds them."""
        return None

    def _stamp(self, issued_at: float) -> None:
        """Hook: the response to a command admitted at ``issued_at`` has
        just arrived."""

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """One-sided read; returns the snapshot bytes.

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

        All descriptors ride one fabric transfer, amortizing the per-op
        costs (§7.1); subclasses implement a non-empty batch's timing as
        ``_read_batch(client_host, server_name, requests, n, trace)``.
        """
        if not requests:
            return _empty_batch()
        return self._read_batch(client_host, server_name, requests,
                                len(requests), trace)

    def _book_read(self, data: bytes, _response_bytes: int) -> None:
        self._counts["reads"] += 1
        self._counts["bytes_fetched"] += len(data)

    def _snapshot_each(self, endpoint: RmaEndpoint,
                       requests: Sequence[ReadRequest]) -> List[ReadResult]:
        """Snapshot every entry of a batch, per-entry errors as values."""
        results: List[ReadResult] = []
        for region_id, offset, size in requests:
            try:
                results.append(
                    endpoint.resolve(region_id).read(offset, size))
            except RmaError as exc:
                self._counts["failures"] += 1
                results.append(exc)
        return results

    def _book_batch(self, results: Sequence[ReadResult],
                    _response_bytes: int, engine_seconds: float) -> None:
        """Account one coalesced op and the engine/NIC CPU it amortized."""
        n = len(results)
        counts = self._counts
        counts["bytes_fetched"] += sum(
            len(r) for r in results if isinstance(r, bytes))
        counts["batched_reads"] += 1
        self._batched_keys[()] += n
        if self._batch_cpu is not None:
            self._batch_cpu.labels(transport=self.name).observe(
                engine_seconds / n)

    @staticmethod
    def _batch_request_bytes(n: int) -> int:
        return RMA_REQUEST_BYTES + RMA_BATCH_ENTRY_BYTES * n

    @staticmethod
    def _batch_response_bytes(results: Sequence[ReadResult]) -> int:
        payload = sum(len(r) for r in results if isinstance(r, bytes))
        return (payload + RMA_RESPONSE_HEADER_BYTES +
                RMA_BATCH_STATUS_BYTES * len(results))

    def _corrupt(self, sections: List[ReadResult]) -> List[ReadResult]:
        """Land an in-flight corruption of a response on its payload.

        One-sided responses carry raw snapshot bytes with no link-level
        integrity, so a corrupted delivery reaches the client and must be
        caught by CliqueMap's own checksum/validation path (§5.1). The
        flipped byte is modeled in the largest section: the per-op rate
        equals the per-delivery rate, and a batch's siblings stay clean.
        (Requests are tiny commands; messaging has an integrity layer.)
        """
        victim = None
        for i, section in enumerate(sections):
            if isinstance(section, bytes) and section and (
                    victim is None or
                    len(section) > len(sections[victim])):
                victim = i
        if victim is not None:
            self._counts["corrupted"] += 1
            sections[victim] = self.fabric.corrupt(sections[victim])
        return sections

    def _corrupt_one(self, data: bytes) -> bytes:
        """:meth:`_corrupt` for a single-section payload."""
        return self._corrupt([data])[0]


def _empty_batch() -> Generator:
    """No exchange at all: nothing on the wire, no CPU, no counters."""
    return []
    yield
