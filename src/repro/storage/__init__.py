"""Durable storage substrate: system of record, miss-path, corpus loader.

The unified miss-path surface (PR 6):

* :class:`SystemOfRecordProtocol` — the structural contract
  ``cell.attach_sor`` accepts. Any object with an RPC server speaking
  Read/Scan/Write plus the corpus-management surface qualifies; our
  :class:`SystemOfRecord` is the reference implementation.
* :class:`MissPolicy` — validated knobs for read-through, negative
  caching, write-behind, and backfill admission control.
* :class:`ReadThroughCoordinator` — the pipeline itself, built by
  ``cell.attach_sor(sor, policy)``.
"""

from typing import Dict, Protocol, runtime_checkable

from .loader import CorpusLoader, LoadReport
from .policy import MissPolicy
from .readthrough import ReadThroughCoordinator
from .sor import ProvisionedThroughput, SystemOfRecord


@runtime_checkable
class SystemOfRecordProtocol(Protocol):
    """What ``cell.attach_sor`` requires of a system of record.

    Structural (checked with ``isinstance`` at attach time): a ``name``,
    an ``rpc_server`` handling ``Read``/``Scan``/``Write``, a ``sealed``
    flag, and the canonical corpus-management methods ``load`` and
    ``freeze``.
    """

    name: str
    rpc_server: object

    @property
    def sealed(self) -> bool:
        ...

    def load(self, items: Dict[bytes, bytes]) -> None:
        ...

    def freeze(self) -> None:
        ...


__all__ = ["CorpusLoader", "LoadReport", "MissPolicy",
           "ProvisionedThroughput", "ReadThroughCoordinator",
           "SystemOfRecord", "SystemOfRecordProtocol"]
