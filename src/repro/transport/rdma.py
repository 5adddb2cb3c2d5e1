"""Generic hardware RDMA transport.

The baseline one-sided read path: a small client CPU cost to post the
work request and reap the completion, a fixed NIC/DMA latency at the
server with *no server CPU*, and payload serialization through both NICs.
2xR GETs are "generic and viable on a variety of transports" (§6.3); this
is the plainest of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..net import Host
from ..telemetry import NULL_SPAN
from .base import (RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport)


@dataclass
class RdmaCostModel:
    """Timing/CPU constants for the hardware RDMA path."""

    client_post_cpu: float = 0.35e-6   # post work request
    client_poll_cpu: float = 0.35e-6   # reap completion
    server_nic_latency: float = 1.4e-6  # NIC processing + DMA at server
    batch_entry_latency: float = 0.2e-6  # extra DMA per coalesced entry


class RdmaTransport(Transport):
    """One-sided reads with a hardware server path."""

    name = "rdma"
    supports_scar = False

    def __init__(self, sim, fabric, cost_model: RdmaCostModel = None,
                 op_timeout: float = 200e-6):
        super().__init__(sim, fabric, op_timeout)
        self.cost = cost_model or RdmaCostModel()

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """Perform a one-sided read; returns the snapshot bytes."""
        trace = trace or NULL_SPAN
        tx = trace.child("nic.tx")
        yield client_host.execute(self.cost.client_post_cpu,
                                  "rma-client")
        tx.finish()
        yield from self.fabric.deliver(client_host,
                                       self._remote_host(server_name),
                                       RMA_REQUEST_BYTES, trace=trace)
        endpoint = self._check_remote(server_name, client_host) or \
            (yield from self._remote_down(server_name))
        # NIC processing + DMA at the server; no server CPU involved.
        serve_span = trace.child("backend.serve", host=server_name)
        yield self.sim.delay(self.cost.server_nic_latency)
        window = self._resolve_or_fail(endpoint, region_id)
        data = window.read(offset, size)  # the snapshot instant
        serve_span.finish()
        corrupted = yield from self.fabric.deliver(
            endpoint.host, client_host,
            len(data) + RMA_RESPONSE_HEADER_BYTES, trace=trace)
        data = self._maybe_corrupt(data, corrupted)
        rx = trace.child("nic.rx")
        yield client_host.execute(self.cost.client_poll_cpu,
                                  "rma-client")
        rx.finish()
        self.counters.reads += 1
        self.counters.bytes_fetched += len(data)
        return data

    def read_multi(self, client_host: Host, server_name: str,
                   requests, trace=None) -> Generator:
        """Coalesced read: one posted work request covers the batch.

        The client pays one post and one poll regardless of batch size;
        the server NIC pipelines the extra DMAs at ``batch_entry_latency``
        each instead of a full per-op NIC traversal.
        """
        if not requests:
            return []
        trace = trace or NULL_SPAN
        n = len(requests)
        span = trace.child("nic.batch", entries=n)
        post_cost = self.cost.client_post_cpu
        yield client_host.execute(post_cost, "rma-client")
        yield from self.fabric.deliver(client_host,
                                       self._remote_host(server_name),
                                       self._batch_request_bytes(n),
                                       parts=n, trace=span)
        endpoint = self._check_remote(server_name, client_host) or \
            (yield from self._remote_down(server_name))
        serve_span = span.child("backend.serve", host=server_name, op="batch")
        yield self.sim.delay(self.cost.server_nic_latency +
                             self.cost.batch_entry_latency * (n - 1))
        results = self._read_entries(endpoint, requests)
        serve_span.finish()
        corrupted = yield from self.fabric.deliver(
            endpoint.host, client_host,
            self._batch_response_bytes(results), parts=n, trace=span)
        results = self._corrupt_largest(results, corrupted)
        poll_cost = self.cost.client_poll_cpu
        yield client_host.execute(poll_cost, "rma-client")
        span.finish()
        self.counters.bytes_fetched += sum(
            len(r) for r in results if isinstance(r, bytes))
        self._observe_batch(n, post_cost + poll_cost)
        return results
