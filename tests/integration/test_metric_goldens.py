"""Frozen digests of every counter surface: registry, scraper and ``stats``.

Each scenario below runs a short seeded workload and reduces what its
monitoring surfaces hold to three blake2b digests:

* ``registry`` — the canonical registry snapshot: every family (sorted
  by name) with its kind and help, then its series sorted by labels,
  each value as a float hex;
* ``timeseries`` — every series the plane's scraper collected, sorted by
  (name, field, labels), every point as a pair of float hexes;
* ``stats`` — every component's ``stats`` (clients, backends, repair
  scanners, the resize and maintenance controllers, the read-through
  coordinator, the transport's counters, the load generator's
  ``WorkloadMetrics`` and the autoscaler), key by key, with ints and
  floats kept apart.

The rows cover a short ``partition``, ``gray-loss``, ``sor-brownout``
and ``resize`` soak, a planned and an unplanned maintenance drill, and a
1RMA cell that batches, sheds, corrupts and autoscales, so every counter
family the tree writes is touched. To re-stamp:
``PYTHONPATH=src python tests/integration/test_metric_goldens.py``.
"""

import hashlib
import pprint

import pytest

from repro.core import (Cell, CellSpec, GetStatus, MaintenanceConfig,
                        RepairConfig, ReplicationMode)
from repro.faults import soak as soak_module
from repro.faults.soak import SCENARIOS, SoakConfig, run_soak
from repro.net import LinkFault
from repro.sim import RandomStream
from repro.workloads import KeySpace, LoadGenerator, WorkloadMetrics

SOAK_DURATION, SOAK_SETTLE = 0.5, 0.25
FAULT_AT, FAULT_SPAN = 0.1, 0.25


def _num(value) -> str:
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _public(stats) -> list:
    """``(name, value)`` of a stats dict or a stats object's public,
    non-callable attributes, sorted by name."""
    if isinstance(stats, dict):
        return sorted(stats.items())
    names = sorted(n for n in dir(stats) if not n.startswith("_"))
    return [(n, getattr(stats, n)) for n in names
            if not callable(getattr(stats, n))]


def _stats_lines(owner: str, stats) -> list:
    lines = []
    for name, value in _public(stats):
        if isinstance(value, (int, float)):
            lines.append(f"{owner} {name} {_num(value)}")
        elif hasattr(value, "count"):        # a LatencyRecorder
            lines.append(f"{owner} {name} {value.count}")
    return lines


def _registry_lines(registry) -> list:
    lines = []
    for name in registry.families():
        family = registry.family(name)
        lines.append(f"{name} {family.kind} {family.help}")
        rows = []
        for series in family.series():
            labels = sorted(series.labels.items())
            if family.kind == "histogram":
                rows.append((labels, f"{series.count} {_num(series.sum)}"))
            else:
                rows.append((labels, _num(series.value)))
        lines.extend(f"  {labels} {value}" for labels, value in sorted(rows))
    return lines


def _timeseries_lines(scraper) -> list:
    if scraper is None:
        return []
    streams = sorted(scraper.series(),
                     key=lambda ts: (ts.name, ts.field,
                                     sorted(ts.labels.items())))
    return [f"{ts.name} {ts.field} {sorted(ts.labels.items())} " +
            " ".join(f"{t.hex()}:{float(v).hex()}" for t, v in ts.points)
            for ts in streams]


def _digest(lines: list) -> str:
    return hashlib.blake2b("\n".join(lines).encode(),
                           digest_size=12).hexdigest()


def _surfaces(cell, extra_stats=()) -> dict:
    stats = []
    for i, client in enumerate(cell._clients):
        stats += _stats_lines(f"client{i}", client.stats)
    for task, backend in sorted(cell.backends.items()):
        stats += _stats_lines(f"backend:{task}", backend.stats)
    for task, scanner in sorted(cell.scanners.items()):
        stats += _stats_lines(f"repair:{task}", scanner.stats)
    stats += _stats_lines("resize", cell.resize.stats)
    stats += _stats_lines("maintenance", cell.maintenance.stats)
    if cell.sor_coordinator is not None:
        stats += _stats_lines("readthrough", cell.sor_coordinator.stats)
    stats += _stats_lines("transport", cell.transport.counters)
    for owner, extra in extra_stats:
        stats += _stats_lines(owner, extra)
    plane = cell.observability
    return {
        "registry": _digest(_registry_lines(cell.metrics)),
        "timeseries": _digest(_timeseries_lines(
            plane.scraper if plane is not None else None)),
        "stats": _digest(stats),
    }


def _soak(row: str):
    def run():
        built = []

        class RecordingCell(Cell):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        original = soak_module.Cell
        soak_module.Cell = RecordingCell
        try:
            plan = SCENARIOS[row].plan(SOAK_DURATION, 3, fault_at=FAULT_AT,
                                       fault_duration=FAULT_SPAN)
            report = run_soak(SoakConfig(
                scenario=row, duration=SOAK_DURATION, settle=SOAK_SETTLE,
                plan=plan, population=8 if row == "partition" else 0))
        finally:
            soak_module.Cell = original
        assert report.ok
        return _surfaces(built[0])
    return run


def _drill(kind: str, cut: bool = False):
    """The ``repro.tools drill`` cell and op sequence; ``cut`` partitions
    the primary from the spare so every migration batch fails."""
    def run():
        cell = Cell(CellSpec(
            mode=ReplicationMode.R3_2, num_shards=3, num_spares=1,
            transport="pony",
            repair_config=RepairConfig(enabled=True, scan_interval=100.0),
            maintenance_config=MaintenanceConfig(restart_delay=0.3)))
        client = cell.connect_client()
        if cut:
            cell.fabric.partition(cell.backends["backend-0"].host,
                                  cell.backends["spare-0"].host)

        def app():
            for i in range(50):
                yield from client.set(b"k-%d" % i, b"v")
            if kind == "planned":
                yield from cell.maintenance.planned_restart(0)
            else:
                yield from cell.maintenance.unplanned_crash(
                    0, restart_delay=0.3)
            for i in range(50):
                result = yield from client.get(b"k-%d" % i)
                assert result.status is GetStatus.HIT
            if cut:
                assert cell.maintenance.stats.migration_rpc_errors > 0

        cell.sim.run(until=cell.sim.process(app()))
        return _surfaces(cell)
    return run


def batched_shed_corrupt_autoscale():
    """1RMA batches and shed open-loop GETs on an autoscaled, observed
    cell, one backend's host corrupting deliveries and another's slowing
    them."""
    cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="1rma", seed=17))
    plane = cell.observe()
    autoscaler = plane.autoscale()
    clients = [cell.connect_client() for _ in range(2)]
    sim = cell.sim
    keys = [b"b-%d" % i for i in range(24)]

    def preload():
        for key in keys:
            yield from clients[0].set(key, b"x" * 64)
        results = yield from clients[1].get_multi(keys)
        assert all(r.status is GetStatus.HIT for r in results)

    sim.run(until=sim.process(preload()))
    cell.fabric.degrade_host(cell.backends["backend-1"].host,
                             LinkFault(corrupt_probability=0.2))
    cell.fabric.degrade_host(cell.backends["backend-2"].host,
                             LinkFault(latency_multiplier=2.0))
    metrics = WorkloadMetrics()
    gen = LoadGenerator(sim, clients,
                        KeySpace(RandomStream(17, "keys"), len(keys),
                                 prefix=b"b-"),
                        RandomStream(17, "load"), metrics,
                        max_outstanding_per_client=1)
    procs = gen.start_open_loop_gets(20_000.0, 0.05)

    def batches():
        for _ in range(10):
            yield from clients[1].get_multi(keys[:8])
            yield sim.delay(5e-3)

    procs.append(sim.process(batches()))
    sim.run(until=sim.all_of(procs))
    cell.fabric.clear_faults()
    sim.run(until=sim.now + 0.1)
    assert metrics.shed > 0
    assert autoscaler.stats.evaluations > 0
    return _surfaces(cell, [("loadgen", metrics),
                            ("autoscaler", autoscaler.stats)])


SCENARIO_RUNS = {
    "soak/partition": _soak("partition"),
    "soak/gray-loss": _soak("gray-loss"),
    "soak/sor-brownout": _soak("sor-brownout"),
    "soak/resize": _soak("resize"),
    "drill/planned": _drill("planned"),
    "drill/planned-cut": _drill("planned", cut=True),
    "drill/unplanned": _drill("unplanned"),
    "batched_shed_corrupt_autoscale": batched_shed_corrupt_autoscale,
}

#: Stamped on the parent of the change that made counters tallies.
GOLDEN = \
{'soak/partition': {'registry': 'e31a4e31dd33e7c7627f7134',
                    'timeseries': '97682cee97052e56522744d0',
                    'stats': 'bc84dd12e48c9d84a67a7cb9'},
 'soak/gray-loss': {'registry': 'f36a15a4d33945103fb995e9',
                    'timeseries': 'a5a0e6588751de1055127b8f',
                    'stats': '94019c4998cf076a09de5d7c'},
 'soak/sor-brownout': {'registry': '88088cf264f609ce8191e1a1',
                       'timeseries': 'db8cb7a6e7687e9e7b374746',
                       'stats': 'a935d6b586548e0a641d2977'},
 'soak/resize': {'registry': '31489974d2a919ad7e1c73f7',
                 'timeseries': '268fa9569da0f6574f447160',
                 'stats': 'aca59c57acb142e2ef64b600'},
 'drill/planned': {'registry': '84740893828285cd30329ba4',
                   'timeseries': 'b8e1dda3ac0aa3820ad2990b',
                   'stats': '5dafcbf315eb3298d1139ecc'},
 'drill/planned-cut': {'registry': 'cc39a259e8ff2d3b8a531662',
                       'timeseries': 'b8e1dda3ac0aa3820ad2990b',
                       'stats': '883d9a808a2f6ff3e2df841d'},
 'drill/unplanned': {'registry': '477b5da718e1a67a49b32a21',
                     'timeseries': 'b8e1dda3ac0aa3820ad2990b',
                     'stats': '3ab0367c1f3a81e85e897771'},
 'batched_shed_corrupt_autoscale': {'registry': 'f62b063df6b205c0960d6a5f',
                                    'timeseries': '65d404908ffd14f048b57112',
                                    'stats': 'd18cd4d6b046b4eb83815963'}}


@pytest.mark.parametrize("name", sorted(SCENARIO_RUNS))
def test_metric_surfaces_match_golden(name):
    assert SCENARIO_RUNS[name]() == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = \\")
    pprint.pprint({name: fn() for name, fn in SCENARIO_RUNS.items()},
                  width=79, sort_dicts=False)
