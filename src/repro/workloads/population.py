"""Aggregate client populations: statistical load at production scale.

The north star is heavy traffic from *millions* of users, but the kernel
retires ~1.3M events/sec on one core (BENCH_kernel.json) — per-client
event loops top out around 10^3 clients, not 10^6. This module crosses
that gap the way rack-scale simulators do: model the population
*statistically* instead of per-actor, using the paper's §7.1 production
distributions (op rate, batch size, object size) that
:mod:`repro.workloads.distributions` already encodes.

**The superposition argument.** N independent clients, each issuing ops
as a Poisson process of rate r, are indistinguishable *at the cell* from
one arrival process of rate N*r: the superposition of independent
Poisson processes is Poisson in their summed rate. A
:class:`ClientPopulation` therefore drives the cell from a small pool of
D *driver* processes (real :class:`~repro.core.CliqueMapClient`\\ s),
each presenting the aggregate arrival process of N/D modeled clients.
Three per-client behaviors do not aggregate and are restored per draw:

* **identity** — each arrival samples which modeled client issued it,
  so per-client outstanding caps bind exactly as they would with real
  clients (a hot client sheds; the population does not borrow capacity
  across identities);
* **shed accounting** — arrivals dropped at a modeled client's cap are
  counted (``WorkloadMetrics.shed`` + the
  ``cliquemap_loadgen_shed_total`` counter), keeping offered vs
  delivered measurable;
* **op thinning** — at extreme offered loads (10^7+ ops) even aggregate
  arrival simulation is too hot to *drive* every op end-to-end.
  ``op_sample_rate`` p drives each surviving arrival with probability p
  and counts the rest as ``thinned``. Thinning a Poisson process yields
  a Poisson process of rate p*lambda, and sampled ops draw keys/batches
  from the same distributions, so latency percentiles and hit rates are
  unbiased estimates of the full population's (the validation harness
  in :mod:`repro.analysis.population` quantifies the tolerance).

**Fidelity boundary.** Quarantine/backoff state lives in the D driver
clients, not in N per-modeled-client scoreboards: a quarantine entered
by one driver shades N/D modeled clients at once. That matches
production fleets where clients share per-host channel state, and is the
price of the aggregation; runs that need per-client quarantine fidelity
should lower N/D (more drivers).

**Honesty template.** With one modeled client per driver (N == D, no
thinning) the driver loop *is* the open loop of one real client — the
identity and thinning draws are skipped — so
:meth:`LoadGenerator.start_open_loop_gets` runs exactly that
configuration, and a population-of-1 run reproduces a one-real-client
run event for event (see ``tests/integration/test_population.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..core import CliqueMapError


@dataclass
class PopulationConfig:
    """Shape of one modeled client population.

    ``rate_per_client`` is offered key-ops/sec per modeled client and
    may be a callable of sim-time (e.g.
    :func:`~repro.workloads.distributions.diurnal_rate` at per-client
    scale). ``op_sample_rate`` in (0, 1] drives that fraction of
    surviving arrivals end-to-end and counts the rest as thinned.
    """

    num_clients: int
    rate_per_client: object
    duration: float
    op_sample_rate: float = 1.0
    max_outstanding_per_client: int = 64

    def __post_init__(self):
        if self.num_clients < 1:
            raise CliqueMapError(
                f"population needs num_clients >= 1, got "
                f"{self.num_clients!r}")
        if not callable(self.rate_per_client) \
                and not self.rate_per_client > 0:
            raise CliqueMapError(
                f"rate_per_client must be > 0, got "
                f"{self.rate_per_client!r}")
        if self.duration <= 0:
            raise CliqueMapError(
                f"duration must be > 0, got {self.duration!r}")
        if not 0.0 < self.op_sample_rate <= 1.0:
            raise CliqueMapError(
                f"op_sample_rate must be in (0, 1], got "
                f"{self.op_sample_rate!r}")
        if self.max_outstanding_per_client < 1:
            raise CliqueMapError(
                f"max_outstanding_per_client must be >= 1, got "
                f"{self.max_outstanding_per_client!r}")


class ClientPopulation:
    """N modeled clients driven by a generator's (small) client pool."""

    def __init__(self, generator, config: PopulationConfig):
        self.generator = generator
        self.config = config
        drivers = len(generator.clients)
        if drivers < 1:
            raise CliqueMapError("population needs at least one driver "
                                 "client in the generator pool")
        if drivers > config.num_clients:
            raise CliqueMapError(
                f"{drivers} drivers for {config.num_clients} modeled "
                f"clients; use at most one driver per modeled client")

    def start(self, batch_sampler=None) -> List:
        """Spawn one driver process per pool client; returns the procs."""
        generator = self.generator
        config = self.config
        drivers = len(generator.clients)
        base, extra = divmod(config.num_clients, drivers)
        procs = []
        id_base = 0
        for i, client in enumerate(generator.clients):
            slice_size = base + (1 if i < extra else 0)
            stream = generator.stream.child(f"get-arrivals-{i}")
            procs.append(generator.sim.process(self._driver_loop(
                client, slice_size, id_base, batch_sampler, stream)))
            id_base += slice_size
        return procs

    def _driver_loop(self, client, slice_size: int, id_base: int,
                     batch_sampler, stream) -> Generator:
        generator = self.generator
        config = self.config
        sim = generator.sim
        metrics = generator.metrics
        rate = config.rate_per_client
        rate_fn = rate if callable(rate) else None
        sample_rate = config.op_sample_rate
        cap = config.max_outstanding_per_client
        end = sim.now + config.duration
        # In-flight batches per modeled client id. Entries are dropped
        # at zero, so this holds O(in-flight) ids, never O(N).
        outstanding: dict = {}
        while sim.now < end:
            per_client = rate_fn(sim.now) if rate_fn is not None else rate
            batch = batch_sampler.sample() if batch_sampler else 1
            # Superposition: the slice's aggregate offered key-rate is
            # slice_size * per-client rate; batches of size b arrive at
            # aggregate_rate / b. A slice of one is one real client.
            interval = batch / max(per_client * slice_size, 1e-9)
            yield sim.delay(stream.expovariate(1.0 / interval))
            metrics.offered += batch
            # Identity restores per-client semantics; the draw is
            # skipped for a slice of one, which has one identity.
            ident = id_base if slice_size == 1 \
                else id_base + stream.randint(0, slice_size - 1)
            if outstanding.get(ident, 0) >= cap:
                generator._count_shed(batch)
                continue
            if sample_rate < 1.0 and stream.random() >= sample_rate:
                metrics.thinned += batch
                continue
            outstanding[ident] = outstanding.get(ident, 0) + 1
            proc = sim.process(self._one_batch(client, ident, batch,
                                               outstanding))
            proc.defused = True

    def _one_batch(self, client, ident: int, batch: int,
                   outstanding: dict) -> Generator:
        generator = self.generator
        try:
            keys = generator.keyspace.sample_keys(batch)
            start = generator.sim.now
            results = yield from client.get_multi(keys)
            batch_latency = generator.sim.now - start
            for result in results:
                generator._record_get(result, batch_latency)
        finally:
            left = outstanding[ident] - 1
            if left:
                outstanding[ident] = left
            else:
                del outstanding[ident]


__all__ = ["ClientPopulation", "PopulationConfig"]
