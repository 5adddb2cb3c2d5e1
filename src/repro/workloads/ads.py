"""The Ads-like serving workload (§7.1, Fig 8).

Advertising data keyed by topic, fetched on demand during auctions from
an R=3.2 cell. Response time is revenue-critical; fetches are highly
batched (30-300 KV pairs at the 99.9th percentile), which makes the
*client* the bottleneck due to response incast. A steady write rate is
joined by periodic *backfill* bursts that refresh slices of the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..core import Cell, CellSpec, ReplicationMode, SetStatus
from ..sim import RandomStream
from .distributions import ads_batch_sizes, ads_object_sizes
from .generators import KeySpace, LoadGenerator, WorkloadMetrics, populate


@dataclass
class AdsScenario:
    """Parameters for an Ads-shaped run (scaled down from production)."""

    num_shards: int = 6
    num_clients: int = 8
    num_keys: int = 2000
    get_rate_per_client: float = 2000.0   # ops/sec offered
    write_rate_per_client: float = 40.0   # steady corpus updates
    backfill_period: float = 2.0          # seconds between backfill bursts
    backfill_fraction: float = 0.05       # slice of corpus per burst
    duration: float = 10.0
    seed: int = 42


class AdsWorkload:
    """Builds a cell and drives Ads-shaped traffic at it."""

    def __init__(self, scenario: AdsScenario = None, cell: Cell = None):
        self.scenario = scenario or AdsScenario()
        self.cell = cell or Cell(CellSpec(
            mode=ReplicationMode.R3_2,
            num_shards=self.scenario.num_shards, transport="pony"))
        self.sim = self.cell.sim
        stream = RandomStream(self.scenario.seed, "ads")
        self.keyspace = KeySpace(stream.child("keys"),
                                 self.scenario.num_keys, prefix=b"topic")
        self.sizes = ads_object_sizes(stream.child("sizes"))
        self.batches = ads_batch_sizes(stream.child("batches"))
        self.stream = stream
        self.clients = [self.cell.connect_client()
                        for _ in range(self.scenario.num_clients)]
        self.metrics = WorkloadMetrics().with_timeline(
            bin_width=self.scenario.duration / 20)
        self.generator = LoadGenerator(self.sim, self.clients, self.keyspace,
                                       stream.child("load"), self.metrics)
        self.backfill_sets = 0

    def preload(self) -> None:
        self.sim.run(until=self.sim.process(
            populate(self.clients[0], self.keyspace, self.sizes)))

    def run(self) -> WorkloadMetrics:
        """Drive the full scenario to completion."""
        scenario = self.scenario
        procs: List = []
        procs += self.generator.start_open_loop_gets(
            scenario.get_rate_per_client, scenario.duration, self.batches)
        procs += self.generator.start_open_loop_sets(
            scenario.write_rate_per_client, scenario.duration, self.sizes)
        procs.append(self.sim.process(self._backfill_loop()))
        self.sim.run(until=self.sim.all_of(procs))
        return self.metrics

    def _backfill_loop(self) -> Generator:
        """Bulk refresh of a corpus slice, like the paper's backfill SETs."""
        scenario = self.scenario
        client = self.clients[-1]
        end = self.sim.now + scenario.duration
        slice_size = max(1, int(scenario.num_keys *
                                scenario.backfill_fraction))
        cursor = 0
        while self.sim.now + scenario.backfill_period < end:
            yield self.sim.delay(scenario.backfill_period)
            for i in range(cursor, cursor + slice_size):
                key = self.keyspace.key(i % scenario.num_keys)
                value = bytes(self.sizes.sample())
                result = yield from client.set(key, value)
                if result.status is SetStatus.APPLIED:
                    self.backfill_sets += 1
            cursor += slice_size
