"""repro: a full reproduction of CliqueMap (SIGCOMM 2021).

CliqueMap is Google's hybrid RMA/RPC in-memory key-value caching system.
This package reimplements the system — and every substrate it depends on
(discrete-event simulation, hosts/NICs/fabric, RMA transports including a
Pony-Express-like software NIC with SCAR, a Stubby-like RPC framework) —
in pure Python, at laptop scale, preserving the paper's comparative
behaviors.

Quickstart::

    from repro import Cell, CellSpec, ReplicationMode

    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=6))
    client = cell.connect_client()
    sim = cell.sim

    def app():
        yield from client.set(b"k", b"v")
        result = yield from client.get(b"k")
        assert result.hit and result.value == b"v"

    sim.run(until=sim.process(app()))
"""

from .core import (Backend, BackendConfig, Cell, CellSpec, ClientConfig,
                   CliqueMapClient, Federation, FederationSpec, GetResult,
                   GetStatus, GetStrategy, MutationResult, OpResult,
                   ReplicationMode, SetStatus, VersionNumber)
from .telemetry import MetricsRegistry, Span, TraceContext, Tracer

__version__ = "1.0.0"

__all__ = [
    "Backend", "BackendConfig", "Cell", "CellSpec", "ClientConfig",
    "CliqueMapClient", "Federation", "FederationSpec", "GetResult",
    "GetStatus", "GetStrategy", "MutationResult", "OpResult",
    "ReplicationMode", "SetStatus", "VersionNumber",
    "MetricsRegistry", "Span", "TraceContext", "Tracer",
    "__version__",
]
