"""Pony Express: a software-defined NIC with engines, scale-out, and SCAR.

Pony Express [31] runs network processing in *engines* — single-threaded
software loops that may time-multiplex one core or each scale out to their
own core in response to load (§7.2.4, Fig 15). Every op consumes engine
service time on both the initiating and serving host; queueing behind busy
engines is what raises tail latency before scale-out kicks in.

Because the NIC is software, CliqueMap installs a custom op: Scan-and-Read
(SCAR, §6.3). The serving engine scans the fetched Bucket for the wanted
KeyHash and follows the IndexEntry pointer to the DataEntry in the same
operation, returning bucket + datum in one round trip. The scan program is
a pure function over raw bucket bytes, supplied by CliqueMap at setup —
mirroring deployment of NIC-resident code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..net import Host
from ..sim import Resource, Simulator
from .base import (RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport)
from .memory import RegionRevokedError, RmaOutOfBoundsError


@dataclass
class PonyCostModel:
    """Engine service times and messaging costs."""

    client_tx: float = 0.40e-6        # initiate an op
    client_rx: float = 0.45e-6        # process a completion
    server_read: float = 0.50e-6      # serve a one-sided read
    scar_scan: float = 0.18e-6        # extra bucket-scan work for SCAR
    batch_entry: float = 0.06e-6      # each extra entry of a coalesced read
    per_kilobyte: float = 0.012e-6    # payload handling per KB per side
    msg_thread_wakeup: float = 2.6e-6  # wake a server app thread (MSG mode)
    msg_app_cpu: float = 1.2e-6       # server application lookup code


@dataclass
class PonyScaleConfig:
    """Load-driven engine scale-out policy."""

    base_engines: int = 1
    max_engines: int = 4
    sample_interval: float = 200e-6
    scale_up_threshold: float = 0.80
    scale_down_threshold: float = 0.25


class PonyEngineGroup:
    """The Pony engines on one host: a served queue with dynamic capacity."""

    def __init__(self, sim: Simulator, host: Host,
                 scale: PonyScaleConfig):
        self.sim = sim
        self.host = host
        self.scale = scale
        self.engines = Resource(sim, capacity=scale.base_engines,
                                name=f"pony:{host.name}")
        # (time, engine_count) capacity changes, for the Fig 15 heatmap.
        self.scale_history: List[Tuple[float, int]] = [(sim.now,
                                                        scale.base_engines)]
        self._monitor_started = False

    @property
    def engine_count(self) -> int:
        return self.engines.capacity

    def serve(self, service_time: float) -> Any:
        """Occupy an engine for ``service_time``, charging host CPU when
        it completes: ``yield group.serve(t)`` from a process (see
        :meth:`Resource.hold`)."""
        if not self._monitor_started:
            self._start_monitor()
        return self.engines.hold(service_time, 0, self.host.charge_inline,
                                 (service_time, "pony"))

    def _start_monitor(self) -> None:
        self._monitor_started = True
        proc = self.sim.process(self._monitor(), name=f"pony-mon:{self.host.name}")
        proc.defused = True

    def _monitor(self) -> Generator:
        """Periodically resize the engine pool based on recent utilization."""
        ckpt = self.engines.checkpoint()
        while True:
            yield self.sim.delay(self.scale.sample_interval)
            if not self.host.alive:
                continue
            util = self.engines.utilization_since(ckpt)
            ckpt = self.engines.checkpoint()
            cap = self.engines.capacity
            if util > self.scale.scale_up_threshold and \
                    cap < self.scale.max_engines:
                self.engines.set_capacity(cap + 1)
                self.scale_history.append((self.sim.now, cap + 1))
            elif util < self.scale.scale_down_threshold and \
                    cap > self.scale.base_engines:
                self.engines.set_capacity(cap - 1)
                self.scale_history.append((self.sim.now, cap - 1))

    def engines_at(self, t: float) -> int:
        """Engine count in effect at time ``t`` (for heatmap rendering)."""
        count = self.scale_history[0][1]
        for at, cap in self.scale_history:
            if at > t:
                break
            count = cap
        return count


class PonyTransport(Transport):
    """Software-NIC transport: reads, SCAR, and two-sided messaging."""

    name = "pony"
    supports_scar = True

    def __init__(self, sim, fabric, cost_model: Optional[PonyCostModel] = None,
                 scale: Optional[PonyScaleConfig] = None,
                 op_timeout: float = 200e-6):
        super().__init__(sim, fabric, op_timeout)
        self.cost = cost_model or PonyCostModel()
        self.scale = scale or PonyScaleConfig()
        self.engine_groups: Dict[str, PonyEngineGroup] = {}
        # host -> registered message handlers (two-sided MSG mode).
        self._msg_handlers: Dict[str, Dict[str, object]] = {}

    # -- engines ---------------------------------------------------------

    def attach(self, host: Host):
        endpoint = super().attach(host)
        if host.name not in self.engine_groups:
            self.engine_groups[host.name] = PonyEngineGroup(
                self.sim, host, self.scale)
        return endpoint

    def engine_group(self, host: Host) -> PonyEngineGroup:
        group = self.engine_groups.get(host.name)
        if group is None:
            self.attach(host)
            group = self.engine_groups[host.name]
        return group

    def _payload_cost(self, nbytes: int) -> float:
        return nbytes / 1024.0 * self.cost.per_kilobyte

    def _initiator(self, host: Host):
        """Software NIC: posting and reaping an op is engine work."""
        return self.engine_group(host).serve

    # -- one-sided read ----------------------------------------------------

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """One-sided read served by the remote Pony engines."""
        cost = self.cost

        def serve(endpoint, span):
            group = self.engine_groups[server_name]
            with span.child("backend.serve", host=server_name):
                yield group.serve(cost.server_read + self._payload_cost(
                    size if endpoint.fits(region_id, offset, size) else 0))
                # the snapshot instant
                data = endpoint.resolve(region_id).read(offset, size)
            return (data, len(data) + RMA_RESPONSE_HEADER_BYTES,
                    cost.client_rx + self._payload_cost(len(data)))

        # ``client_tx`` covers a read's fixed 64-byte command; only the
        # variable-size requests (batch, MSG) price their bytes on top.
        return self._exchange(client_host, server_name, trace, 0,
                              RMA_REQUEST_BYTES, cost.client_tx, serve,
                              self._corrupt_one, self._book_read)

    def _read_batch(self, client_host: Host, server_name: str, requests,
                    n: int, trace) -> Generator:
        """Coalesced read: one engine op per side serves the whole batch.

        The engine dispatch (``client_tx``/``server_read``/``client_rx``)
        is paid once; each extra entry adds only ``batch_entry`` scan work
        plus payload handling, which is where the amortization of §7.1
        comes from.
        """
        cost = self.cost
        req_bytes = self._batch_request_bytes(n)
        tx_cost = cost.client_tx + self._payload_cost(req_bytes)
        engine_seconds = 0.0

        def serve(endpoint, span):
            nonlocal engine_seconds
            group = self.engine_groups[server_name]
            with span.child("backend.serve", host=server_name, op="batch"):
                total_size = sum(size for region_id, offset, size in requests
                                 if endpoint.fits(region_id, offset, size))
                serve_cost = (cost.server_read + cost.batch_entry * (n - 1) +
                              self._payload_cost(total_size))
                yield group.serve(serve_cost)
                results = self._snapshot_each(endpoint, requests)
            resp_bytes = self._batch_response_bytes(results)
            rx_cost = cost.client_rx + self._payload_cost(resp_bytes)
            engine_seconds = tx_cost + serve_cost + rx_cost
            return results, resp_bytes, rx_cost

        def book(results, response_bytes):
            self._book_batch(results, response_bytes, engine_seconds)

        return self._exchange(client_host, server_name, trace, n, req_bytes,
                              tx_cost, serve, self._corrupt, book)

    # -- SCAR ---------------------------------------------------------------

    def scar(self, client_host: Host, server_name: str,
             index_region_id: int, bucket_offset: int, bucket_size: int,
             key_hash: bytes, trace=None) -> Generator:
        """Scan-and-Read: returns ``(bucket_bytes, data_bytes_or_None)``.

        The serving engine fetches the bucket, runs the installed scan
        program against ``key_hash``, and — on a hit — follows the pointer
        to the DataEntry, all within one network round trip.
        """
        cost = self.cost

        def serve(endpoint, span):
            if endpoint.scar_program is None:
                raise RegionRevokedError(index_region_id)
            group = self.engine_groups[server_name]
            with span.child("backend.serve", host=server_name, op="scar"):
                yield group.serve(
                    cost.server_read + cost.scar_scan + self._payload_cost(
                        bucket_size if endpoint.fits(
                            index_region_id, bucket_offset, bucket_size)
                        else 0))
                bucket = endpoint.resolve(index_region_id).read(
                    bucket_offset, bucket_size)

                data: Optional[bytes] = None
                pointer = endpoint.scar_program(bucket, key_hash)
                # A pointer the window cannot hold (torn, corrupted) is
                # not followed: it buys no engine time.
                if pointer is not None and endpoint.fits(*pointer):
                    data_region_id, data_offset, data_size = pointer
                    try:
                        data_window = endpoint.resolve(data_region_id)
                        yield group.serve(self._payload_cost(data_size))
                        data = data_window.read(data_offset, data_size)
                    except (RegionRevokedError, RmaOutOfBoundsError):
                        # Pointer raced with a reshape/eviction; return
                        # just the bucket — the client validates and
                        # retries.
                        pass
            resp_bytes = (len(bucket) + (len(data) if data else 0) +
                          RMA_RESPONSE_HEADER_BYTES)
            return ((bucket, data), resp_bytes,
                    cost.client_rx + self._payload_cost(resp_bytes))

        return self._exchange(client_host, server_name, trace, 0,
                              RMA_REQUEST_BYTES + len(key_hash),
                              cost.client_tx, serve, self._land_scar,
                              self._book_scar)

    def _land_scar(self, response):
        # The flip lands in whichever section dominates the response:
        # the data copy when the scan hit, the bucket otherwise.
        bucket, data = response
        if data:
            return bucket, self._corrupt_one(data)
        return self._corrupt_one(bucket), data

    def _book_scar(self, _response, response_bytes: int) -> None:
        # Fetched bytes are the whole response, header included: bucket
        # and datum are not separable on the wire.
        self._counts["scars"] += 1
        self._counts["bytes_fetched"] += response_bytes

    # -- two-sided messaging (MSG lookup strategy) ----------------------------

    def register_message_handler(self, host: Host, name: str,
                                 handler) -> None:
        """``handler(request_payload) -> (response_payload, response_bytes)``.

        The handler runs on a woken application thread (host CPU), modeling
        the two-sided lookup strategy of Fig 7.
        """
        self.attach(host)
        self._msg_handlers.setdefault(host.name, {})[name] = handler

    def message(self, client_host: Host, server_name: str, name: str,
                request_bytes: int, request_payload, trace=None) -> Generator:
        """Send a two-sided message and await the application's reply."""
        cost = self.cost

        def serve(endpoint, span):
            handlers = self._msg_handlers.get(server_name, {})
            if name not in handlers:
                raise RegionRevokedError(-1)
            group = self.engine_groups[server_name]
            with span.child("backend.serve", host=server_name,
                            op="msg") as span:
                yield group.serve(cost.server_read +
                                  self._payload_cost(request_bytes))
                # Wake an application thread and run the handler on host
                # CPU — the expensive part two-sided designs pay (§6.3).
                with span.child("handler.message"):
                    yield endpoint.host.execute(cost.msg_thread_wakeup +
                                                cost.msg_app_cpu, "msg-app")
                    response_payload, response_bytes = handlers[name](
                        request_payload)
                yield group.serve(cost.client_tx +
                                  self._payload_cost(response_bytes))
            return (response_payload,
                    response_bytes + RMA_RESPONSE_HEADER_BYTES,
                    cost.client_rx + self._payload_cost(response_bytes))

        # No ``land``: messaging rides an integrity layer.
        return self._exchange(
            client_host, server_name, trace, 0, request_bytes,
            cost.client_tx + self._payload_cost(request_bytes), serve, None,
            self._book_message)

    def _book_message(self, _response, _response_bytes: int) -> None:
        self._counts["messages"] += 1
