"""Property-based tests over backend storage management.

Random sequences of sets/erases/defrags/grows must never lose or corrupt
resident data — the strongest statement of "server-side code only has to
keep retryable conditions transient, detectable, and rare" (§4).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (BackendConfig, Cell, CellSpec, GetStatus,
                        GetStrategy, ReplicationMode, SetStatus)


ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "erase", "defrag", "grow_pressure"]),
        st.integers(0, 12),           # key id
        st.integers(1, 60),           # value size multiplier (x100 bytes)
    ),
    min_size=1, max_size=40)


def new_cell():
    return Cell(CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(
            data_initial_bytes=256 * 1024, data_virtual_limit=2 << 20,
            slab_bytes=64 * 1024, num_buckets=256, ways=7)))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops)
def test_storage_management_never_loses_data(op_list):
    cell = new_cell()
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    backend = cell.backend_by_task("backend-0")
    model = {}

    def driver():
        for op, key_i, size in op_list:
            key = b"key-%d" % key_i
            if op == "set":
                value = bytes([key_i % 251]) * (size * 100)
                result = yield from client.set(key, value)
                if result.status is SetStatus.APPLIED:
                    model[key] = value
            elif op == "erase":
                result = yield from client.erase(key)
                if result.status is SetStatus.APPLIED:
                    model.pop(key, None)
            elif op == "defrag":
                yield from backend.defragment(0.9)
            elif op == "grow_pressure":
                # A burst of bulky inserts drives growth machinery.
                filler = b"f-%d" % key_i
                result = yield from client.set(filler, bytes(size * 300))
                if result.status is SetStatus.APPLIED:
                    model[filler] = bytes(size * 300)
        # Verify the model after the dust settles.
        yield cell.sim.timeout(0.1)
        for key, value in model.items():
            got = yield from client.get(key)
            assert got.status is GetStatus.HIT, (key, got)
            assert got.value == value, key
        # And absent keys stay absent.
        for key_i in range(13):
            key = b"key-%d" % key_i
            if key not in model:
                got = yield from client.get(key)
                assert got.status is GetStatus.MISS, key

    cell.sim.run(until=cell.sim.process(driver()))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 30), min_size=5, max_size=60),
       st.integers(2, 9))
def test_bucket_overflow_and_promotion_preserve_corpus(key_ids, ways_seed):
    """Tiny index: constant spill/promote churn must never lose a key."""
    cell = Cell(CellSpec(
        mode=ReplicationMode.R1, num_shards=1, transport="pony",
        backend_config=BackendConfig(num_buckets=2, ways=2,
                                     overflow_rpc_fallback=True,
                                     index_resize_load_factor=2.0,
                                     overflow_capacity=64)))
    client = cell.connect_client(strategy=GetStrategy.TWO_R)
    model = {}

    def driver():
        for i, key_i in enumerate(key_ids):
            key = b"k-%d" % key_i
            if i % ways_seed == 0 and key in model:
                result = yield from client.erase(key)
                if result.status is SetStatus.APPLIED:
                    model.pop(key, None)
            else:
                value = b"v-%d-%d" % (key_i, i)
                result = yield from client.set(key, value)
                if result.status is SetStatus.APPLIED:
                    model[key] = value
        for key, value in model.items():
            got = yield from client.get(key)
            assert got.status is GetStatus.HIT, key
            assert got.value == value

    cell.sim.run(until=cell.sim.process(driver()))
