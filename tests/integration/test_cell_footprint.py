"""What a cell costs the host to exist: resident memory per backend and
CPU to build, measured in a fresh interpreter so other tests' cells and
the allocator's high-water mark stay out of the numbers."""

import json
import os
import subprocess
import sys

FOOTPRINT = """
import json, resource, time
from repro.core import Cell, CellSpec, ReplicationMode

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

def build(transport, hosts):
    before, started = peak_rss_mb(), time.process_time()
    cell = Cell(CellSpec(transport=transport, num_shards=hosts,
                         mode=ReplicationMode.R3_2))
    cpu = time.process_time() - started
    grown = peak_rss_mb() - before
    cell.close()
    return {"cpu_s": cpu, "rss_mb_per_host": grown / hosts}

print(json.dumps({"1rma-200": build("1rma", 200),
                  "pony-1000": build("pony", 1000)}))
"""


def test_a_backend_costs_the_host_what_it_stores():
    """A backend reserves 256 MiB and populates 1 MiB of it, but has
    written only its index stamps (232 KiB) when the cell comes up:
    ≤ 0.5 MiB of peak RSS per host (0.23 measured; 1.23 when the arena
    was a zero-filled bytearray), and a 1,000-host cell builds in well
    under 1.5 s of CPU (0.26 s measured; 5.1 s when every populated page
    was memset)."""
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], check=True, timeout=300,
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))).stdout
    report = json.loads(out)
    assert report["1rma-200"]["rss_mb_per_host"] <= 0.5, report
    assert report["pony-1000"]["rss_mb_per_host"] <= 0.5, report
    assert report["pony-1000"]["cpu_s"] < 1.5, report
