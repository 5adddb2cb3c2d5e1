"""Small-surface coverage: rendering edge cases, host priority, misc."""


from repro.analysis import (cdf_points, render_percentile_lines,
                            render_series, render_table)
from repro.net import Host, HostConfig
from repro.sim import Simulator


def test_render_series_empty():
    assert "(no data)" in render_series("empty", [])


def test_render_table_handles_mixed_types():
    out = render_table("mixed", ["a", "b"],
                       [[0, 0.0], [1_000_000.0, 0.000123],
                        ["text", 3.14159]])
    assert "1,000,000" in out   # large floats get thousands separators
    assert "0.000123" in out
    assert "3.14" in out


def test_render_percentile_lines_sparse_series():
    out = render_percentile_lines(
        "sparse", [("s1", [(1.0, 10.0)]), ("s2", [(2.0, 20.0)])])
    # Each series only fills its own x rows.
    assert "10.00" in out and "20.00" in out


def test_cdf_points_empty():
    assert cdf_points([]) == []


def test_cdf_points_single_value():
    points = cdf_points([5.0])
    assert points[-1] == (5.0, 1.0)


def test_host_priority_orders_core_grants():
    sim = Simulator()
    host = Host(sim, "h", HostConfig(cores=1))
    order = []

    def holder():
        yield host.execute(10e-6, "holder")

    def low():
        yield sim.timeout(1e-6)
        yield host.execute(1e-6, "low", priority=10)
        order.append("low")

    def high():
        yield sim.timeout(2e-6)
        yield host.execute(1e-6, "high", priority=0)
        order.append("high")

    sim.process(holder())
    sim.process(low())
    sim.process(high())
    sim.run()
    assert order == ["high", "low"]


def test_host_zero_cost_execute():
    sim = Simulator()
    host = Host(sim, "h", HostConfig(cores=1))

    def proc():
        yield host.execute(0.0, "noop")
        return sim.now

    assert sim.run(until=sim.process(proc())) == 0.0


def test_ledger_components_sorted():
    sim = Simulator()
    host = Host(sim, "h")
    host.charge_inline(1e-6, "zeta")
    host.charge_inline(1e-6, "alpha")
    assert host.ledger.components() == ["alpha", "zeta"]


def test_version_repr_is_compact():
    from repro.core import VersionNumber
    assert repr(VersionNumber(1, 2, 3)) == "v(1,2,3)"


def test_placement_shards_for_primary_wraps():
    from repro.core import Placement
    placement = Placement(num_shards=4, replication=3)
    assert placement.shards_for_primary(3) == [3, 0, 1]
