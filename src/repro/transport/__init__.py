"""RMA transports: memory regions, generic RDMA, Pony Express, 1RMA."""

from .base import (RMA_REQUEST_BYTES, RMA_RESPONSE_HEADER_BYTES, Transport,
                   TransportCounters)
from .memory import (Arena, ArenaReservationError, MemoryRegion,
                     RegionRevokedError, RegistrationCostModel,
                     RemoteHostDownError, RmaEndpoint, RmaError,
                     RmaOutOfBoundsError, next_region_id)
from .onerma import OneRmaCostModel, OneRmaTransport
from .pony import (PonyCostModel, PonyEngineGroup, PonyScaleConfig,
                   PonyTransport)
from .rdma import RdmaCostModel, RdmaTransport

__all__ = [
    "RMA_REQUEST_BYTES", "RMA_RESPONSE_HEADER_BYTES", "Transport",
    "TransportCounters",
    "Arena", "ArenaReservationError", "MemoryRegion", "RegionRevokedError",
    "RegistrationCostModel", "RemoteHostDownError", "RmaEndpoint", "RmaError",
    "RmaOutOfBoundsError", "next_region_id",
    "OneRmaCostModel", "OneRmaTransport",
    "PonyCostModel", "PonyEngineGroup", "PonyScaleConfig", "PonyTransport",
    "RdmaCostModel", "RdmaTransport",
]
