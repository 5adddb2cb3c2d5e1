"""No result depends on ``PYTHONHASHSEED``.

``str`` and ``bytes`` hash differently in every interpreter launch unless
the seed is pinned, so any loop over a set of task names or key hashes
runs in launch order: handshakes, jitter draws and repair versions then
differ between two runs of the same model seed. One workload slice and
one repair scan run here in two fresh interpreters, hash seeds 0 and 7,
and must agree to the last bit and the last scheduler entry. (The static
half — no loop over a freshly built set — is
``tests/unit/test_determinism_lint.py``.)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SLICE = """
import hashlib, json
from repro.analysis import run_scale_workload
from repro.core import Cell, CellSpec, RepairConfig, ReplicationMode
from repro.core.repair import RepairScanner

scale = run_scale_workload(num_hosts=12, ops=400, batch=4)

# The order a client handshakes its backends in (its views are a dict,
# so insertion order is handshake order).
wide = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=12))
handshakes = list(wide.connect_client()._views)

# A repair scan over a dirtied key set: every fourth key loses one
# replica, and the scanner re-installs each at a fresh version — so the
# versions record the order the dirty keys were repaired in.
cell = Cell(CellSpec(mode=ReplicationMode.R3_2, num_shards=3,
                     transport="pony",
                     repair_config=RepairConfig(enabled=False)))
client = cell.connect_client()
keys = [b"rk-%03d" % i for i in range(48)]
scanner = RepairScanner(cell.sim, cell, cell.backend_by_task("backend-0"))

def app():
    for key in keys:
        yield from client.set(key, b"v" * 64)
    victim = cell.backend_by_task("backend-1")
    for key in keys[::4]:
        yield from victim._remove_entry(victim.placement.key_hash(key))
    yield from scanner.scan_once()

cell.sim.run(until=cell.sim.process(app()))
versions = hashlib.blake2b(digest_size=16)
for key in keys:
    for backend in cell.serving_backends():
        versions.update(repr((key, backend.lookup_local(key)[1])).encode())
print(json.dumps({
    "digest": scale["digest"], "sim_seconds": scale["sim_seconds"],
    "events": scale["events"], "handshakes": handshakes,
    "repaired": scanner.stats.keys_repaired,
    "repair_versions": versions.hexdigest(),
    "repair_clock": repr(cell.sim.now), "repair_events": cell.sim._seq}))
"""


def run_slice(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", SLICE], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_two_hash_seeds_one_result():
    seed0, seed7 = run_slice("0"), run_slice("7")
    assert seed0["repaired"] == 12  # the scan had an order to get wrong
    assert len(seed0["handshakes"]) == 12
    assert seed0 == seed7
