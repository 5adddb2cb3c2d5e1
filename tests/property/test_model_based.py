"""Model-based testing of R=3.2: sequential ops must match a dict model.

The paper proved single-failure tolerance of R=3.2 in TLA+ (§5.1). Here
we check the corresponding refinement property in simulation: under any
sequence of SET/ERASE/GET/CAS operations — including one backend crash
and recovery — sequential GETs always return exactly what an ideal
key-value map would.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (Cell, CellSpec, GetStatus, GetStrategy,
                        RepairConfig, ReplicationMode, SetStatus)


ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "get", "erase", "crash", "restore"]),
        st.integers(0, 5),            # key id
        st.integers(0, 3),            # value id / crash target
    ),
    min_size=1, max_size=30)


def new_cell():
    return Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                         transport="pony",
                         repair_config=RepairConfig(enabled=False)))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops)
def test_sequential_ops_match_model_with_single_failure(op_list):
    cell = new_cell()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    model = {}
    crashed = [None]  # at most one backend down at a time

    def driver():
        for op, key_i, value_i in op_list:
            key = b"key-%d" % key_i
            if op == "set":
                value = b"value-%d" % value_i
                result = yield from client.set(key, value)
                if result.status is SetStatus.APPLIED:
                    model[key] = value
            elif op == "erase":
                result = yield from client.erase(key)
                if result.status is SetStatus.APPLIED:
                    model.pop(key, None)
            elif op == "get":
                result = yield from client.get(key)
                if key in model:
                    assert result.status is GetStatus.HIT, \
                        f"lost {key!r}: {result}"
                    assert result.value == model[key]
                else:
                    assert result.status is GetStatus.MISS, \
                        f"phantom {key!r}: {result}"
            elif op == "crash" and crashed[0] is None:
                task = f"backend-{value_i % 3}"
                cell.backend_by_task(task).crash()
                crashed[0] = task
            elif op == "restore" and crashed[0] is not None:
                task = crashed[0]
                shard = int(task.split("-")[1])
                cell.restart_backend_task(task, shard=shard)
                crashed[0] = None
                # Recover its contents so a *future* crash of a different
                # backend doesn't leave keys inquorate.
                from repro.core.repair import RepairScanner
                recovery = RepairScanner(cell.sim, cell,
                                         cell.backend_by_task(task))
                yield from recovery.restart_recovery()
                # Single-failure tolerance presumes failures don't overlap:
                # let clients reconnect and a cohort scan clear any dirty
                # quorums (in production the periodic scanner does this,
                # §5.4) before the next fault can be injected.
                yield cell.sim.timeout(10e-3)
                yield from recovery.scan_once()

    cell.sim.run(until=cell.sim.process(driver()))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)),
                min_size=1, max_size=25))
def test_last_writer_wins_across_clients(writes):
    """Interleaved writers from different clients: the final state equals
    the highest-version write per key (= the last applied in sim order)."""
    cell = new_cell()
    clients = [cell.connect_client() for _ in range(2)]
    reader = cell.connect_client(strategy=GetStrategy.TWO_R)
    expected = {}

    def driver():
        for i, (key_i, value_i) in enumerate(writes):
            client = clients[i % 2]
            key = b"k%d" % key_i
            value = b"v%d" % value_i
            result = yield from client.set(key, value)
            assert result.status is SetStatus.APPLIED
            expected[key] = value
        for key, value in expected.items():
            got = yield from reader.get(key)
            assert got.status is GetStatus.HIT
            assert got.value == value

    cell.sim.run(until=cell.sim.process(driver()))
