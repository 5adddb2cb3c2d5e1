"""Validation harness for the aggregate client-population model.

The honesty methodology mirrors PR 4's kernel-equivalence digests: the
cheapest configuration of the new machinery must be *exactly* the old
machinery (population-of-1 == one real open-loop client, same seed, same
events), and the interesting configurations must match statistically
(KS distance over latency samples, hit-rate and delivered-op deltas).

``DRIVER_GOLDEN`` freezes what every open-loop GET driver in the tree
produces — the real-client arm, the Ads and Geo workloads, a shed-heavy
open loop — as counts plus a digest over every latency sample. To
re-stamp: ``PYTHONPATH=src python tests/integration/test_population.py``.
"""

import hashlib
import pprint

import pytest

from repro.analysis import compare_population, run_population_arm
from repro.core import Cell, CellSpec, CliqueMapError, ReplicationMode
from repro.sim import RandomStream
from repro.workloads import (AdsScenario, AdsWorkload, ClientPopulation,
                             GeoScenario, GeoWorkload, KeySpace,
                             LoadGenerator, PopulationConfig,
                             WorkloadMetrics, populate)


# -- exact equivalence --------------------------------------------------------

def test_population_of_one_is_bit_identical_to_one_real_client():
    # One modeled client on one driver consumes the identical RNG draw
    # sequence as one real open-loop client: the identity draw is
    # skipped at slice size 1 and the thinning draw at sample rate 1,
    # so the two runs are the same run — same ops, same latencies, same
    # scheduling sequence numbers.
    kwargs = dict(num_modeled=1, rate_per_client=3000.0, duration=0.3,
                  seed=5, num_hosts=4, num_keys=128, drain=0.1)
    real = run_population_arm("real", **kwargs)
    pop = run_population_arm("population", num_drivers=1, **kwargs)
    assert pop["latency_samples"] == real["latency_samples"]
    assert pop["ops"] == real["ops"] > 0
    assert pop["hits"] == real["hits"]
    assert pop["offered"] == real["offered"]
    assert pop["shed"] == real["shed"]
    assert pop["events"] == real["events"]
    assert pop["sim_seconds"] == real["sim_seconds"]


# -- statistical equivalence --------------------------------------------------

def test_population_matches_real_clients_statistically():
    result = compare_population(num_modeled=16, num_drivers=2,
                                rate_per_client=400.0, duration=0.5,
                                seed=11)
    cmp = result["comparison"]
    assert result["real"]["ops"] > 500
    assert result["population"]["ops"] > 500
    assert cmp["ks_distance"] < 0.15, cmp
    assert cmp["hit_rate_delta"] < 0.05, cmp
    assert 0.85 < cmp["delivered_ratio"] < 1.15, cmp


def test_population_thinning_delivers_the_sampled_fraction():
    run = run_population_arm("population", num_modeled=64,
                             rate_per_client=200.0, duration=0.5,
                             num_drivers=2, seed=9, num_hosts=4,
                             num_keys=256, op_sample_rate=0.25,
                             drain=0.2)
    assert run["thinned"] > 0
    driven_fraction = (run["offered"] - run["thinned"] -
                       run["shed"]) / run["offered"]
    assert driven_fraction == pytest.approx(0.25, abs=0.06)
    # Thinning skips batches before issue; whatever is driven lands.
    assert run["ops"] == run["driven"]
    assert run["errors"] == 0


# -- offered/shed/thinned accounting ------------------------------------------

def test_population_accounting_balances_and_counter_matches():
    # Cap of 1 outstanding batch per modeled client at an absurd offered
    # rate: most arrivals shed, and every key-op must be accounted as
    # exactly one of shed / thinned / delivered.
    run = run_population_arm("population", num_modeled=4,
                             rate_per_client=50_000.0, duration=0.1,
                             num_drivers=2, seed=3, num_hosts=4,
                             num_keys=64, op_sample_rate=0.5,
                             outstanding_cap=1, drain=0.3)
    assert run["shed"] > 0
    assert run["thinned"] > 0
    assert run["offered"] == run["shed"] + run["thinned"] + run["ops"]
    # WorkloadMetrics and the cell-registry counter must agree.
    assert run["shed_counter"] == run["shed"]


def test_open_loop_counts_sheds_instead_of_dropping_silently():
    # The open-loop generator used to drop batches at the outstanding
    # cap without a trace; now every shed is counted in WorkloadMetrics
    # and on cliquemap_loadgen_shed_total.
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    sim = cell.sim
    stream = RandomStream(7, "shed")
    keyspace = KeySpace(stream.child("keys"), 32)
    client = cell.connect_client()
    sim.run(until=sim.process(populate(client, keyspace, 64)))
    metrics = WorkloadMetrics()
    gen = LoadGenerator(sim, [client], keyspace, stream.child("load"),
                        metrics, max_outstanding_per_client=1)
    procs = gen.start_open_loop_gets(rate_per_client=200_000.0,
                                     duration=0.05)
    sim.run(until=sim.all_of(procs))
    sim.run(until=sim.now + 0.2)
    assert metrics.shed > 0
    assert metrics.offered == metrics.shed + metrics.gets
    assert 0.0 < metrics.shed_rate <= 1.0
    assert cell.metrics.total("cliquemap_loadgen_shed_total") == \
        metrics.shed


# -- load-driver sameness -----------------------------------------------------

def _samples_digest(samples) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for sample in samples:
        digest.update(repr(sample).encode())
    return digest.hexdigest()


def _metrics_stamp(sim, metrics: WorkloadMetrics) -> dict:
    return {"events": sim._seq, "offered": metrics.offered,
            "shed": metrics.shed, "ops": metrics.gets,
            "hits": metrics.hits, "sets": metrics.sets,
            "get_latency": _samples_digest(metrics.get_latency.samples()),
            "set_latency": _samples_digest(metrics.set_latency.samples())}


def _stamp_real_arm() -> dict:
    run = run_population_arm("real", num_modeled=2, rate_per_client=4000.0,
                             duration=0.1, seed=13, num_hosts=4,
                             num_keys=96, outstanding_cap=2, drain=0.05)
    return {"events": run["events"], "offered": run["offered"],
            "shed": run["shed"], "ops": run["ops"],
            "get_latency": _samples_digest(run["latency_samples"])}


def _stamp_ads() -> dict:
    workload = AdsWorkload(AdsScenario(
        num_shards=3, num_clients=2, num_keys=60,
        get_rate_per_client=400.0, write_rate_per_client=20.0,
        backfill_period=0.1, duration=0.25, seed=3))
    workload.preload()
    return _metrics_stamp(workload.sim, workload.run())


def _stamp_geo() -> dict:
    workload = GeoWorkload(GeoScenario(
        num_shards=3, num_clients=2, num_updaters=1, num_keys=60,
        base_get_rate_per_client=400.0, day_length=0.2, duration=0.3,
        update_rate_per_client=30.0, seed=4))
    workload.preload()
    return _metrics_stamp(workload.sim, workload.run())


def _stamp_shed_heavy() -> dict:
    # The open loop of test_open_loop_counts_sheds_instead_of_dropping_
    # silently, frozen draw for draw.
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    sim = cell.sim
    stream = RandomStream(7, "shed")
    keyspace = KeySpace(stream.child("keys"), 32)
    client = cell.connect_client()
    sim.run(until=sim.process(populate(client, keyspace, 64)))
    metrics = WorkloadMetrics()
    gen = LoadGenerator(sim, [client], keyspace, stream.child("load"),
                        metrics, max_outstanding_per_client=1)
    procs = gen.start_open_loop_gets(rate_per_client=200_000.0,
                                     duration=0.05)
    sim.run(until=sim.all_of(procs))
    sim.run(until=sim.now + 0.2)
    return _metrics_stamp(sim, metrics)


DRIVERS = {"real_arm": _stamp_real_arm, "ads": _stamp_ads,
           "geo": _stamp_geo, "shed_heavy": _stamp_shed_heavy}

DRIVER_GOLDEN = \
{'real_arm': {'events': 46416,
              'offered': 828,
              'shed': 4,
              'ops': 824,
              'get_latency': 'db337d479840fe8fbe0e6339aee2e2b1'},
 'ads': {'events': 28684,
         'offered': 333,
         'shed': 0,
         'ops': 205,
         'hits': 205,
         'sets': 17,
         'get_latency': '8e978c5af5ee8ef34c01cfdb222a114c',
         'set_latency': '09a849abba851c50277c538f6e1c2be4'},
 'geo': {'events': 18409,
         'offered': 227,
         'shed': 0,
         'ops': 216,
         'hits': 216,
         'sets': 10,
         'get_latency': '0f3256216000dd1c54bc1ae166780c20',
         'set_latency': '3fac1ad994316966984f1af0a6e7bf08'},
 'shed_heavy': {'events': 134670,
                'offered': 10053,
                'shed': 6959,
                'ops': 3094,
                'hits': 3094,
                'sets': 0,
                'get_latency': 'd2d427bd1d2e85d5116f58f2c4b036ea',
                'set_latency': 'cae66941d9efbd404e4d88758ea67670'}}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_open_loop_drivers_reproduce_their_stamped_runs(name):
    assert DRIVERS[name]() == DRIVER_GOLDEN[name]


# -- configuration validation -------------------------------------------------

def test_population_config_rejects_nonsense():
    with pytest.raises(CliqueMapError):
        PopulationConfig(num_clients=0, rate_per_client=1.0, duration=1.0)
    with pytest.raises(CliqueMapError):
        PopulationConfig(num_clients=1, rate_per_client=1.0,
                         duration=0.0)
    with pytest.raises(CliqueMapError):
        PopulationConfig(num_clients=1, rate_per_client=1.0, duration=1.0,
                         op_sample_rate=0.0)
    with pytest.raises(CliqueMapError):
        PopulationConfig(num_clients=1, rate_per_client=1.0, duration=1.0,
                         max_outstanding_per_client=0)


def test_population_requires_drivers_not_exceeding_clients():
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3))
    stream = RandomStream(1, "cfg")
    keyspace = KeySpace(stream.child("keys"), 16)
    drivers = [cell.connect_client() for _ in range(3)]
    gen = LoadGenerator(cell.sim, drivers, keyspace,
                        stream.child("load"), WorkloadMetrics())
    with pytest.raises(CliqueMapError):
        ClientPopulation(gen, PopulationConfig(
            num_clients=2, rate_per_client=1.0, duration=1.0))


def test_run_population_arm_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_population_arm("imaginary", num_modeled=1,
                           rate_per_client=1.0, duration=0.1)


if __name__ == "__main__":
    print("DRIVER_GOLDEN = \\")
    pprint.pprint({name: fn() for name, fn in DRIVERS.items()},
                  width=79, sort_dicts=False)
