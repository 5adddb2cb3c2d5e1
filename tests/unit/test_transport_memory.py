"""Unit tests for RMA memory: arenas, windows, registration, revocation."""

import os
import subprocess
import sys
import tracemalloc

import pytest

from repro.core.index import IndexRegion
from repro.net import Fabric, FabricConfig
from repro.sim import Simulator
from repro.transport import (Arena, MemoryRegion, RegionRevokedError,
                             RmaEndpoint, RmaOutOfBoundsError,
                             registration_time)


def test_arena_initial_population():
    arena = Arena(initial_bytes=1024, virtual_limit=4096)
    assert arena.populated == 1024
    assert arena.virtual_limit == 4096


def test_arena_rejects_initial_beyond_virtual_limit():
    with pytest.raises(ValueError):
        Arena(initial_bytes=8192, virtual_limit=4096)


def test_arena_grow_extends_population():
    arena = Arena(1024, 4096)
    arena.grow(2048)
    assert arena.populated == 2048
    # New bytes are zeroed.
    assert arena.read(1024, 1024) == bytes(1024)


def test_arena_grow_cannot_shrink_or_exceed():
    arena = Arena(1024, 4096)
    with pytest.raises(ValueError):
        arena.grow(512)
    with pytest.raises(ValueError):
        arena.grow(8192)


def test_arena_read_write_roundtrip():
    arena = Arena(128, 128)
    arena.write(10, b"hello")
    assert arena.read(10, 5) == b"hello"


def test_arena_bounds_checked():
    arena = Arena(64, 64)
    with pytest.raises(RmaOutOfBoundsError):
        arena.read(60, 8)
    with pytest.raises(RmaOutOfBoundsError):
        arena.write(62, b"xyz")


def test_mapping_past_populated_is_out_of_bounds_before_and_after_grow():
    """The mapping is ``virtual_limit`` long; ``populated`` is the only
    guard between an access and the reserved bytes above it."""
    arena = Arena(4096, 1 << 20)
    window = MemoryRegion(arena)
    assert len(arena.buffer) == 1 << 20

    def assert_reserved_range_raises():
        top = arena.populated
        for offset, size in ((top, 1), (top - 1, 2), (top + 4096, 16),
                             (arena.virtual_limit - 8, 8),
                             (0, arena.virtual_limit)):
            with pytest.raises(RmaOutOfBoundsError):
                arena.read(offset, size)
            with pytest.raises(RmaOutOfBoundsError):
                arena.write(offset, bytes(size))
            with pytest.raises(RmaOutOfBoundsError):
                MemoryRegion(arena).read(offset, size)
        assert arena.read(top - 8, 8) == bytes(8)

    assert_reserved_range_raises()
    arena.grow(64 * 1024)
    assert_reserved_range_raises()
    # The old window's limit predates the grow: what it cannot reach is
    # populated now, and still out of its bounds.
    assert window.limit == 4096
    arena.write(4096, b"above the old window")
    with pytest.raises(RmaOutOfBoundsError):
        window.read(4096, 8)
    with pytest.raises(RmaOutOfBoundsError):
        window.read(4090, 8)
    with pytest.raises(RmaOutOfBoundsError):
        window.write(4096, b"x")
    assert window.read(4088, 8) == bytes(8)
    assert arena.buffer[4096:4101] == b"above"


def test_empty_arena_works():
    arena = Arena(0, 0)
    assert arena.populated == arena.virtual_limit == 0
    assert arena.read(0, 0) == b""
    arena.write(0, b"")
    arena.grow(0)
    with pytest.raises(RmaOutOfBoundsError):
        arena.read(0, 1)
    with pytest.raises(ValueError):
        arena.grow(1)


def test_grow_is_bookkeeping():
    """Same buffer object, every old byte kept, zeros above, and nothing
    allocated in proportion to the growth."""
    arena = Arena(1 << 20, 128 << 20)
    buffer = arena.buffer
    view = memoryview(buffer)   # a live export no longer pins the size
    stamp = bytes(range(256)) * 4096
    arena.write(0, stamp)
    tracemalloc.start()
    try:
        arena.grow(65 << 20)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert arena.buffer is buffer
    assert arena.populated == 65 << 20
    assert arena.read(0, 1 << 20) == stamp
    assert view[:256] == stamp[:256]
    for offset in (1 << 20, 33 << 20, (65 << 20) - 4096):
        assert arena.read(offset, 4096) == bytes(4096)


def test_index_region_is_fully_populated():
    """``IndexRegion`` reads ``arena.buffer`` in place, with no bounds
    check of its own: its arena has no reserved tail to stray into."""
    for buckets, ways in ((1, 1), (512, 7), (1024, 3)):
        arena = IndexRegion(buckets, ways, config_id=1).arena
        assert arena.populated == arena.virtual_limit == len(arena.buffer)


_REFUSED_RESERVATION = """
import resource
from repro.core import BackendConfig
from repro.transport import Arena, ArenaReservationError
limit = BackendConfig().data_virtual_limit
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
try:
    Arena(1 << 20, limit)
except ArenaReservationError as exc:
    assert exc.virtual_limit == limit
    print(exc)
"""


def test_refused_reservation_is_one_typed_error():
    """Under an address-space limit the OS refuses the mapping; the
    error says which number to lower."""
    result = subprocess.run(
        [sys.executable, "-c", _REFUSED_RESERVATION], capture_output=True,
        text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 0, result.stderr
    assert f"virtual_limit={1 << 28}" in result.stdout
    assert "BackendConfig.data_virtual_limit" in result.stdout


_FORK_PAST_RESERVATIONS = """
import os
from repro.core import BackendConfig
from repro.transport import Arena
meminfo = dict(line.split(":") for line in open("/proc/meminfo"))
commit = sum(int(meminfo[k].split()[0]) << 10
             for k in ("MemTotal", "SwapTotal"))
limit = BackendConfig().data_virtual_limit
arenas = [Arena(1 << 20, limit) for _ in range(commit // limit + 4)]
pid = os.fork()
if pid == 0:
    os._exit(0)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(len(arenas) * limit > commit)
"""


def _overcommit_mode():
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return int(fh.read())
    except OSError:
        return None


@pytest.mark.skipif(_overcommit_mode() in (None, 2),
                    reason="needs Linux without strict overcommit")
def test_reservations_past_ram_do_not_block_fork():
    """Arena reservations are address space, not committed memory: a
    process holding more of them than RAM + swap can still fork."""
    result = subprocess.run(
        [sys.executable, "-c", _FORK_PAST_RESERVATIONS], capture_output=True,
        text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"


def test_window_reads_through_to_arena():
    arena = Arena(128, 256)
    window = MemoryRegion(arena)
    arena.write(0, b"abc")
    assert window.read(0, 3) == b"abc"


def test_overlapping_windows_share_bytes():
    """Reshaping exposes a second larger window over the same arena."""
    arena = Arena(128, 1024)
    old = MemoryRegion(arena)
    arena.grow(512)
    new = MemoryRegion(arena)
    new.write(100, b"shared")
    assert old.read(100, 6) == b"shared"
    assert new.region_id != old.region_id
    # Old window still bounded by its original limit.
    with pytest.raises(RmaOutOfBoundsError):
        old.read(200, 16)


def test_window_revocation_blocks_reads():
    arena = Arena(64, 64)
    window = MemoryRegion(arena)
    window.revoke()
    with pytest.raises(RegionRevokedError):
        window.read(0, 8)


def test_registration_cost_scales_with_pages():
    small = registration_time(4096)
    large = registration_time(4096 * 1000)
    assert small == pytest.approx(50.25e-6)
    assert large == pytest.approx(50e-6 + 250e-6)


def test_endpoint_expose_resolve_revoke():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    host = fabric.add_host("h")
    endpoint = RmaEndpoint(host)
    arena = Arena(64, 64)
    window = endpoint.expose(MemoryRegion(arena))
    assert endpoint.resolve(window.region_id) is window
    endpoint.revoke(window)
    with pytest.raises(RegionRevokedError):
        endpoint.resolve(window.region_id)
    assert endpoint.window_count == 0


def test_endpoint_unknown_region_is_revoked_error():
    sim = Simulator()
    fabric = Fabric(sim, FabricConfig())
    endpoint = RmaEndpoint(fabric.add_host("h"))
    with pytest.raises(RegionRevokedError):
        endpoint.resolve(123456)


def test_region_ids_are_unique():
    arena = Arena(16, 16)
    ids = {MemoryRegion(arena).region_id for _ in range(100)}
    assert len(ids) == 100
