"""The Geo-like serving workload (§7.1, Fig 9).

Road-traffic predictions keyed by road segment. GET traffic is strongly
diurnal (~3x swing over a day) and batched in tens of segments; a steady
background SET rate from separate updater jobs keeps the model fresh.
The paper's takeaway: despite the 3x GET-rate swing, tail latency varies
minimally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core import Cell, CellSpec, ReplicationMode
from ..sim import RandomStream
from .distributions import diurnal_rate, geo_batch_sizes, geo_object_sizes
from .generators import KeySpace, LoadGenerator, WorkloadMetrics, populate

DIURNAL_AMPLITUDE = 0.5          # => 3x peak-to-trough GET rate


@dataclass
class GeoScenario:
    """Parameters for a Geo-shaped run (scaled down from production)."""

    num_shards: int = 6
    num_clients: int = 6
    num_updaters: int = 2
    num_keys: int = 2000
    base_get_rate_per_client: float = 2000.0
    day_length: float = 8.0                 # a compressed "day" in sim-secs
    update_rate_per_client: float = 150.0   # steady model refresh
    duration: float = 16.0                  # two compressed days
    seed: int = 7


class GeoWorkload:
    """Builds a cell and drives Geo-shaped diurnal traffic at it."""

    def __init__(self, scenario: GeoScenario = None):
        self.scenario = scenario or GeoScenario()
        self.cell = Cell(CellSpec(
            mode=ReplicationMode.R3_2,
            num_shards=self.scenario.num_shards, transport="pony"))
        self.sim = self.cell.sim
        stream = RandomStream(self.scenario.seed, "geo")
        self.keyspace = KeySpace(stream.child("keys"),
                                 self.scenario.num_keys, prefix=b"segment")
        self.sizes = geo_object_sizes(stream.child("sizes"))
        self.batches = geo_batch_sizes(stream.child("batches"))
        self.stream = stream
        self.readers = [self.cell.connect_client()
                        for _ in range(self.scenario.num_clients)]
        self.updaters = [self.cell.connect_client()
                         for _ in range(self.scenario.num_updaters)]
        self.metrics = WorkloadMetrics().with_timeline(
            bin_width=self.scenario.duration / 24)
        self.reader_gen = LoadGenerator(self.sim, self.readers, self.keyspace,
                                        stream.child("reads"), self.metrics)
        self.updater_gen = LoadGenerator(self.sim, self.updaters,
                                         self.keyspace,
                                         stream.child("writes"), self.metrics)

    def preload(self) -> None:
        self.sim.run(until=self.sim.process(
            populate(self.readers[0], self.keyspace, self.sizes)))

    def run(self) -> WorkloadMetrics:
        scenario = self.scenario
        rate = diurnal_rate(scenario.base_get_rate_per_client,
                            amplitude=DIURNAL_AMPLITUDE,
                            period=scenario.day_length,
                            phase=scenario.day_length / 4)
        procs: List = []
        procs += self.reader_gen.start_open_loop_gets(
            rate, scenario.duration, self.batches)
        procs += self.updater_gen.start_open_loop_sets(
            scenario.update_rate_per_client, scenario.duration, self.sizes)
        self.sim.run(until=self.sim.all_of(procs))
        return self.metrics
