"""1RMA transport: an all-hardware serving path with PCIe modeling.

1RMA (§7.2.4) trades programmability for a fully-hardware datapath: no
SCAR primitive (each GET is 2xR, two fabric RTTs), but a heavily-optimized
NIC/memory interaction so the application-visible RTT is lower than
packet-oriented systems and — crucially — the serving path has *no
software bottleneck*, so latency stays flat as load ramps (Fig 16/17).

The NIC emits *command timestamps* measuring combined fabric + remote-PCIe
latency per op, which is what Figure 16 plots as a heatmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Tuple

from ..net import Host
from ..sim import Request, Resource
from .base import RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport


@dataclass
class OneRmaCostModel:
    """Timing/CPU constants for the 1RMA path."""

    client_submit_cpu: float = 0.30e-6     # command submission
    client_complete_cpu: float = 0.30e-6   # completion handling
    server_nic_latency: float = 0.5e-6     # NIC command execution
    pcie_base_latency: float = 0.6e-6      # PCIe round trip at server
    pcie_bytes_per_sec: float = 16e9       # server PCIe read bandwidth
    # 1RMA's explicit congestion control: each initiator NIC caps its
    # outstanding solicited bytes; ops beyond the window queue locally.
    solicitation_window_ops: int = 64


class OneRmaTransport(Transport):
    """One-sided reads over the 1RMA hardware path, with NIC timestamps."""

    name = "1rma"
    supports_scar = False

    def __init__(self, sim, fabric, cost_model: OneRmaCostModel = None,
                 op_timeout: float = 200e-6,
                 record_timestamps: bool = True):
        super().__init__(sim, fabric, op_timeout)
        self.cost = cost_model or OneRmaCostModel()
        self.record_timestamps = record_timestamps
        # (completion_time, fabric+pcie_latency) samples, as emitted by
        # the NIC's command executor (Fig 16).
        self.command_timestamps: List[Tuple[float, float]] = []
        self._windows = {}  # per-initiator solicitation windows

    def _admit(self, host: Host) -> Request:
        """A slot of the initiator NIC's solicitation window."""
        window = self._windows.get(host.name)
        if window is None:
            window = self._windows[host.name] = Resource(
                self.sim, capacity=self.cost.solicitation_window_ops,
                name=f"1rma-window:{host.name}")
        return window.request()

    def _stamp(self, issued_at: float) -> None:
        """The NIC's command timestamp: fabric + remote PCIe."""
        if self.record_timestamps:
            self.command_timestamps.append(
                (self.sim.now, self.sim.now - issued_at))

    def read(self, client_host: Host, server_name: str, region_id: int,
             offset: int, size: int, trace=None) -> Generator:
        """Perform a one-sided 1RMA read; returns the snapshot bytes."""
        cost = self.cost

        def serve(endpoint, span):
            with span.child("backend.serve", host=server_name):
                yield self.sim.delay(cost.server_nic_latency)
                window = endpoint.resolve(region_id)
                # PCIe read of the payload; none if translation rejects it.
                if endpoint.fits(region_id, offset, size):
                    yield self.sim.delay(cost.pcie_base_latency +
                                         size / cost.pcie_bytes_per_sec)
                data = window.read(offset, size)  # the snapshot instant
            return (data, len(data) + RMA_RESPONSE_HEADER_BYTES,
                    cost.client_complete_cpu)

        return self._exchange(client_host, server_name, trace, 0,
                              RMA_REQUEST_BYTES, cost.client_submit_cpu,
                              serve, self._corrupt_one, self._book_read)

    def _read_batch(self, client_host: Host, server_name: str, requests,
                    n: int, trace) -> Generator:
        """Coalesced read: one command, one window slot, one PCIe transaction.

        The NIC executes the whole batch as a single solicited command:
        one ``pcie_base_latency`` plus the summed payload over PCIe
        bandwidth, and a single command timestamp — batching preserves
        the Fig 16 measurement semantics (one command, one sample).
        """
        cost = self.cost

        def serve(endpoint, span):
            with span.child("backend.serve", host=server_name, op="batch"):
                yield self.sim.delay(cost.server_nic_latency)
                total_size = sum(size for region_id, offset, size in requests
                                 if endpoint.fits(region_id, offset, size))
                yield self.sim.delay(cost.pcie_base_latency +
                                     total_size / cost.pcie_bytes_per_sec)
                results = self._snapshot_each(endpoint, requests)
            return (results, self._batch_response_bytes(results),
                    cost.client_complete_cpu)

        def book(results, response_bytes):
            self._book_batch(results, response_bytes, cost.client_submit_cpu +
                             cost.client_complete_cpu)

        return self._exchange(client_host, server_name, trace, n,
                              self._batch_request_bytes(n),
                              cost.client_submit_cpu, serve, self._corrupt,
                              book)
