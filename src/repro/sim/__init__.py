"""Discrete-event simulation kernel (events, processes, resources, RNG)."""

from .core import (AllOf, AnyOf, Event, FanIn, Interrupt, Process,
                   SimulationError, Simulator, Timeout)
from .parallel import (ShardCoordinator, ShardMessage, ShardProgram,
                       ShardRunReport)
from .rand import MixtureSizeDistribution, RandomStream, ZipfSampler, percentile
from .resources import Request, Resource, Store

__all__ = [
    "AllOf", "AnyOf", "Event", "FanIn", "Interrupt", "Process",
    "SimulationError", "Simulator", "Timeout", "Request", "Resource", "Store",
    "RandomStream", "ZipfSampler", "MixtureSizeDistribution", "percentile",
    "ShardCoordinator", "ShardMessage", "ShardProgram", "ShardRunReport",
]
