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
        cost = self.cost

        def serve(endpoint, span):
            # NIC processing + DMA at the server; no server CPU involved.
            with span.child("backend.serve", host=server_name):
                yield self.sim.delay(cost.server_nic_latency)
                # the snapshot instant
                data = endpoint.resolve(region_id).read(offset, size)
            return (data, len(data) + RMA_RESPONSE_HEADER_BYTES,
                    cost.client_poll_cpu)

        return self._exchange(client_host, server_name, trace, 0,
                              RMA_REQUEST_BYTES, cost.client_post_cpu,
                              serve, self._corrupt_one, self._book_read)

    def _read_batch(self, client_host: Host, server_name: str, requests,
                    n: int, trace) -> Generator:
        """Coalesced read: one posted work request covers the batch.

        The client pays one post and one poll regardless of batch size;
        the server NIC pipelines the extra DMAs at ``batch_entry_latency``
        each instead of a full per-op NIC traversal.
        """
        cost = self.cost

        def serve(endpoint, span):
            with span.child("backend.serve", host=server_name, op="batch"):
                yield self.sim.delay(cost.server_nic_latency +
                                     cost.batch_entry_latency * (n - 1))
                results = self._snapshot_each(endpoint, requests)
            return (results, self._batch_response_bytes(results),
                    cost.client_poll_cpu)

        def book(results, response_bytes):
            self._book_batch(results, response_bytes,
                             cost.client_post_cpu + cost.client_poll_cpu)

        return self._exchange(client_host, server_name, trace, n,
                              self._batch_request_bytes(n),
                              cost.client_post_cpu, serve, self._corrupt,
                              book)
