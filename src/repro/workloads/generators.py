"""Synthetic load generation against a CliqueMap cell.

GET traffic is **open loop**: batches arrive by a Poisson process at an
offered rate (optionally time-varying, e.g. diurnal), so queueing and
overload behavior emerge naturally. Every open-loop GET driver runs the
one driver loop of :class:`~repro.workloads.population.ClientPopulation`
— a real client is a population of one. SET traffic is a plain Poisson
stream per client.

All results land in :mod:`repro.analysis` recorders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..analysis import LatencyRecorder, TimeSeries
from ..core import CliqueMapClient, GetStatus, SetStatus
from ..sim import RandomStream, Simulator, ZipfSampler


class KeySpace:
    """A fixed corpus of keys with a zipf popularity distribution."""

    def __init__(self, stream: RandomStream, num_keys: int,
                 prefix: bytes = b"key", zipf_s: float = 0.99,
                 cache_ranks: int = 65536):
        self.num_keys = num_keys
        self.prefix = prefix
        self._sampler = ZipfSampler(stream, num_keys, zipf_s)
        # Zipf traffic revisits a small head of the corpus constantly;
        # cache those encoded key bytes instead of re-rendering per
        # draw. The cache is bounded to the head (``cache_ranks``
        # entries) — tail keys render on demand, so a 10^7-key
        # population run never holds every encoded key in memory.
        self.cache_ranks = min(num_keys, max(0, cache_ranks))
        self._key_cache: dict = {}

    def key(self, i: int) -> bytes:
        if i >= self.cache_ranks:
            return self.prefix + b"-%d" % i
        cached = self._key_cache.get(i)
        if cached is None:
            cached = self._key_cache[i] = self.prefix + b"-%d" % i
        return cached

    def sample_key(self) -> bytes:
        return self.key(self._sampler.sample())

    def sample_keys(self, n: int) -> List[bytes]:
        """Draw ``n`` keys in one bulk pass over the zipf sampler."""
        key = self.key
        return [key(r) for r in self._sampler.sample_n(n)]

    def all_keys(self) -> List[bytes]:
        return [self.key(i) for i in range(self.num_keys)]


def populate(client: CliqueMapClient, keyspace: KeySpace, size_dist,
             count: Optional[int] = None,
             parallelism: int = 16) -> Generator:
    """Pre-load the corpus; returns the number of keys installed."""
    sim = client.sim
    # Render only the keys being installed: ``all_keys()[:count]`` would
    # materialize the full corpus (10^6+ keys in population runs) to
    # keep the first ``count``.
    limit = keyspace.num_keys if count is None \
        else min(count, keyspace.num_keys)
    keys = [keyspace.key(i) for i in range(limit)]
    installed = [0]

    def worker(chunk):
        for key in chunk:
            value = bytes(size_dist.sample()) if hasattr(size_dist, "sample") \
                else bytes(size_dist)
            result = yield from client.set(key, value)
            if result.status is SetStatus.APPLIED:
                installed[0] += 1

    chunks = [keys[i::parallelism] for i in range(parallelism)]
    procs = [sim.process(worker(c)) for c in chunks if c]
    yield sim.all_of(procs)
    return installed[0]


@dataclass
class WorkloadMetrics:
    """Everything a workload run records."""

    get_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("get"))
    set_latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("set"))
    get_timeline: Optional[TimeSeries] = None
    set_timeline: Optional[TimeSeries] = None
    gets: int = 0
    hits: int = 0
    sets: int = 0
    get_errors: int = 0
    # Offered-vs-delivered accounting (key-ops). ``offered`` counts every
    # op an open-loop/population arrival wanted to issue; ``shed`` the
    # ops dropped at the outstanding cap; ``thinned`` the ops a
    # population run skipped by op-sampling (statistically delivered,
    # not driven). Without these, overload makes the offered rate
    # unmeasurable — sheds used to vanish silently.
    offered: int = 0
    shed: int = 0
    thinned: int = 0

    def with_timeline(self, bin_width: float) -> "WorkloadMetrics":
        self.get_timeline = TimeSeries(bin_width, "get-latency")
        self.set_timeline = TimeSeries(bin_width, "set-latency")
        return self

    @property
    def hit_rate(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


class LoadGenerator:
    """Drives GET/SET traffic from a set of clients."""

    def __init__(self, sim: Simulator, clients: List[CliqueMapClient],
                 keyspace: KeySpace, stream: RandomStream,
                 metrics: Optional[WorkloadMetrics] = None,
                 max_outstanding_per_client: int = 64):
        self.sim = sim
        self.clients = clients
        self.keyspace = keyspace
        self.stream = stream
        self.metrics = metrics or WorkloadMetrics()
        self.max_outstanding = max_outstanding_per_client
        # Sheds land both in WorkloadMetrics and on the cell's registry
        # (clients share the cell registry), so soaks and the
        # observability plane see them alongside every other reaction.
        self._m_shed = clients[0].metrics.counter(
            "cliquemap_loadgen_shed_total",
            "Offered ops dropped because a client hit its outstanding "
            "cap") if clients else None

    def _count_shed(self, ops: int) -> None:
        self.metrics.shed += ops
        if self._m_shed is not None:
            self._m_shed.labels().inc(ops)

    # -- GET traffic ----------------------------------------------------------

    def start_open_loop_gets(self, rate_per_client,
                             duration: float,
                             batch_sampler=None) -> List:
        """Poisson arrivals at ``rate_per_client`` ops/sec (callable ok):
        a population of one modeled client per pool client."""
        return self.start_population_gets(
            len(self.clients), rate_per_client, duration, batch_sampler)

    def start_population_gets(self, num_clients: int, rate_per_client,
                              duration: float, batch_sampler=None,
                              op_sample_rate: float = 1.0,
                              max_outstanding_per_client: Optional[int]
                              = None) -> List:
        """Aggregate-population mode: model ``num_clients`` clients on
        the existing (small) client pool via Poisson superposition.

        Each real client becomes a *driver* for an equal slice of the
        modeled population. See :mod:`repro.workloads.population` for
        the model and its fidelity argument; with ``num_clients`` equal
        to the pool size (one modeled client per driver) it is
        :meth:`start_open_loop_gets`.
        """
        from .population import ClientPopulation, PopulationConfig
        population = ClientPopulation(self, PopulationConfig(
            num_clients=num_clients, rate_per_client=rate_per_client,
            duration=duration, op_sample_rate=op_sample_rate,
            max_outstanding_per_client=self.max_outstanding
            if max_outstanding_per_client is None
            else max_outstanding_per_client))
        return population.start(batch_sampler)

    def _record_get(self, result, batch_latency: float) -> None:
        metrics = self.metrics
        metrics.gets += 1
        if result.status is GetStatus.HIT:
            metrics.hits += 1
        elif result.status is GetStatus.ERROR:
            metrics.get_errors += 1
        metrics.get_latency.record(result.latency)
        if metrics.get_timeline is not None:
            metrics.get_timeline.record(self.sim.now, result.latency)

    # -- SET traffic ---------------------------------------------------------

    def start_open_loop_sets(self, rate_per_client, duration: float,
                             size_dist) -> List:
        procs = []
        for i, client in enumerate(self.clients):
            stream = self.stream.child(f"set-arrivals-{i}")
            procs.append(self.sim.process(self._open_set_loop(
                client, rate_per_client, duration, size_dist, stream)))
        return procs

    def _open_set_loop(self, client, rate, duration, size_dist,
                       stream) -> Generator:
        end = self.sim.now + duration
        while self.sim.now < end:
            now_rate = rate(self.sim.now) if callable(rate) else rate
            yield self.sim.delay(stream.expovariate(max(now_rate, 1e-9)))
            proc = self.sim.process(self._one_set(client, size_dist))
            proc.defused = True

    def _one_set(self, client, size_dist) -> Generator:
        key = self.keyspace.sample_key()
        value = bytes(size_dist.sample()) if hasattr(size_dist, "sample") \
            else bytes(size_dist)
        result = yield from client.set(key, value)
        self.metrics.sets += 1
        self.metrics.set_latency.record(result.latency)
        if self.metrics.set_timeline is not None:
            self.metrics.set_timeline.record(self.sim.now, result.latency)
