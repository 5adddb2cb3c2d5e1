"""Network substrate: hosts, CPUs, NICs, links, and the datacenter fabric."""

from .fabric import (CrossShardLink, Fabric, FabricConfig, LinkFault,
                     NetworkDropError)
from .host import CpuLedger, CStateModel, Host, HostConfig, HostDownError
from .nic import Link, Nic, gbps

__all__ = [
    "CrossShardLink", "Fabric", "FabricConfig", "LinkFault",
    "NetworkDropError",
    "Host", "HostConfig", "HostDownError", "CpuLedger", "CStateModel",
    "Link", "Nic", "gbps",
]
