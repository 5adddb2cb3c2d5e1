"""Generic hardware RDMA transport.

The baseline one-sided read path: a small client CPU cost to post the
work request and reap the completion, a fixed NIC/DMA latency at the
server with *no server CPU*, and payload serialization through both NICs.
2xR GETs are "generic and viable on a variety of transports" (§6.3); this
is the plainest of them.
"""

from __future__ import annotations

from typing import Generator

from ..net import Host
from .base import (RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport)

# Timing/CPU constants for the hardware RDMA path.
_CLIENT_POST_CPU = 0.35e-6       # post work request
_CLIENT_POLL_CPU = 0.35e-6       # reap completion
_SERVER_NIC_LATENCY = 1.4e-6     # NIC processing + DMA at server
_BATCH_ENTRY_LATENCY = 0.2e-6    # extra DMA per coalesced entry


class RdmaTransport(Transport):
    """One-sided reads with a hardware server path."""

    name = "rdma"
    supports_scar = False

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """Perform a one-sided read; returns the snapshot bytes."""
        def serve(endpoint, span):
            # NIC processing + DMA at the server; no server CPU involved.
            with span.child("backend.serve", host=server_name):
                yield self.sim.delay(_SERVER_NIC_LATENCY)
                # the snapshot instant
                data = endpoint.resolve(region_id).read(offset, size)
            return (data, len(data) + RMA_RESPONSE_HEADER_BYTES,
                    _CLIENT_POLL_CPU)

        return self._exchange(client_host, server_name, trace, 0,
                              RMA_REQUEST_BYTES, _CLIENT_POST_CPU,
                              serve, self._corrupt_one, self._book_read)

    def _read_batch(self, client_host: Host, server_name: str, requests,
                    n: int, trace) -> Generator:
        """Coalesced read: one posted work request covers the batch.

        The client pays one post and one poll regardless of batch size;
        the server NIC pipelines the extra DMAs at ``_BATCH_ENTRY_LATENCY``
        each instead of a full per-op NIC traversal.
        """
        def serve(endpoint, span):
            with span.child("backend.serve", host=server_name, op="batch"):
                yield self.sim.delay(_SERVER_NIC_LATENCY +
                                     _BATCH_ENTRY_LATENCY * (n - 1))
                results = self._snapshot_each(endpoint, requests)
            return (results, self._batch_response_bytes(results),
                    _CLIENT_POLL_CPU)

        def book(results, response_bytes):
            self._book_batch(results, response_bytes,
                             _CLIENT_POST_CPU + _CLIENT_POLL_CPU)

        return self._exchange(client_host, server_name, trace, n,
                              self._batch_request_bytes(n),
                              _CLIENT_POST_CPU, serve, self._corrupt,
                              book)
