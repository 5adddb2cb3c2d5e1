"""Per-layer accounting, taken from outside the program.

Three instruments, none of which edits ``src/``:

* :func:`profile_by_layer` — cProfile self time summed by source path;
* :class:`SpanLedger` — simulated self time of every ``OpResult.trace``
  span, attributed along the blocking path and summed by span name;
* :class:`CounterReader` — exact counts read from public surfaces
  (``sim._seq`` the way ``repro.analysis.perf`` already reads it).

Layers are this repo's modules. The two maps below are the whole
definition of which code and which span belongs to which layer.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import Dict, Optional

LAYERS = (
    "sim.core", "sim.resources", "net", "transport.pony",
    "transport.onerma", "transport.base", "rpc", "core.client",
    "core.backend", "core.index", "core.quorum", "core.resilience",
    "core.repair", "storage", "telemetry", "observe", "faults",
    "workloads", "python", "harness",
)

#: ``repro/<path>`` prefix -> layer; first match wins, so the specific
#: modules come before their package.
PATH_LAYERS = (
    ("sim/resources.py", "sim.resources"),
    ("sim/", "sim.core"),
    ("net/", "net"),
    ("transport/pony.py", "transport.pony"),
    ("transport/onerma.py", "transport.onerma"),
    ("transport/", "transport.base"),        # base, memory, rdma
    ("rpc/", "rpc"),
    ("core/backend.py", "core.backend"),
    ("core/slab.py", "core.backend"),
    ("core/eviction.py", "core.backend"),
    ("core/data.py", "core.backend"),
    ("core/tombstone.py", "core.backend"),
    ("core/index.py", "core.index"),
    ("core/quorum.py", "core.quorum"),
    ("core/resilience.py", "core.resilience"),
    ("core/repair.py", "core.repair"),
    ("core/maintenance.py", "core.repair"),
    ("core/resize.py", "core.repair"),
    # client, cell, config, hashing, checksum, version, truetime, errors
    ("core/", "core.client"),
    ("storage/", "storage"),
    ("telemetry/", "telemetry"),
    ("analysis/", "telemetry"),              # latency recorders, stats
    ("observe/", "observe"),
    ("faults/", "faults"),
    ("workloads/", "workloads"),
    ("", "core.client"),                     # repro/__init__, testing, ...
)

#: span name (or ``prefix.``) -> layer. The span-pass layers are the six
#: that own simulated time; ``transport`` is whichever transport ran.
SPAN_LAYERS = {
    "get": "core.client", "get_multi": "core.client", "set": "core.client",
    "set_multi": "core.client", "erase": "core.client", "cas": "core.client",
    "index": "core.client", "data": "core.client",
    "validate": "core.client", "retry": "core.client",
    "build": "core.client", "mutate": "core.client",
    "fabric.deliver": "net", "propagate": "net", "ingress": "net",
    "egress": "net", "backend.serve": "core.backend",
}
SPAN_PREFIX_LAYERS = (
    ("transport.", "transport"), ("nic.", "net"), ("rpc.", "rpc"),
    ("handler.", "core.backend"), ("sor.", "storage"),
    ("readthrough", "storage"),
)
SPAN_PASS_LAYERS = ("core.client", "transport", "net", "rpc",
                    "core.backend", "storage")

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPAN_END = attrgetter("end")


def layer_of_path(filename: str) -> str:
    """Layer owning a profiled function's source file."""
    marker = filename.rfind(os.sep + "repro" + os.sep)
    if marker < 0:
        return "harness" if filename.startswith(_HERE) else "python"
    rel = filename[marker + len("repro") + 2:].replace(os.sep, "/")
    for prefix, layer in PATH_LAYERS:
        if rel.startswith(prefix):
            return layer
    return "python"


def layer_of_span(name: str) -> Optional[str]:
    """Layer owning a span name; None when the name is not in the map."""
    layer = SPAN_LAYERS.get(name)
    if layer is not None:
        return layer
    for prefix, layer in SPAN_PREFIX_LAYERS:
        if name.startswith(prefix):
            return layer
    return None


# ---------------------------------------------------------------------------
# Profile pass
# ---------------------------------------------------------------------------

def profile_by_layer(profiler) -> Dict[str, Dict[str, float]]:
    """Sum cProfile self time and call counts by layer.

    Function entry/exit is the span boundary here and ``tottime`` is the
    self time, so the per-layer seconds partition the profiled time.
    """
    import pstats
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _func), (_cc, calls, tottime, _ct, _callers) in \
            pstats.Stats(profiler).stats.items():
        row = out[layer_of_path(filename)]
        row["self_s"] += tottime
        row["calls"] += calls
    return out


# ---------------------------------------------------------------------------
# Span pass
# ---------------------------------------------------------------------------

class SpanLedger:
    """Simulated self time by layer over every op's span tree.

    A span's self time is its duration minus the part its children
    cover. Children of one span run in parallel here (three replica
    reads, a speculative data fetch), so each instant of the op is given
    to exactly one span: walking back from the op's end, the child that
    finishes last owns the interval it covers, recursively — the
    blocking path. The pieces therefore sum to the op's latency, which
    :meth:`add` checks.
    """

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in SPAN_PASS_LAYERS}
        self.roots = 0
        self.spans = 0
        self.latency_s = 0.0
        self.unmapped: Dict[str, int] = {}
        self.bad: Optional[str] = None

    def add(self, result) -> None:
        root = result.trace.root
        if root.labels.get("_perf_seen"):
            return                      # a batch shares one root
        root.labels["_perf_seen"] = True
        before = sum(self.self_s.values())
        self._attribute(root, root.start, root.end, "core.client")
        total = sum(self.self_s.values()) - before
        self.roots += 1
        self.latency_s += root.duration
        if self.bad is None:
            if abs(total - root.duration) > 1e-9 * max(root.duration, 1e-12):
                self.bad = (f"span self times sum to {total!r}, op "
                            f"{root.name} lasted {root.duration!r}")
            elif root.name != "get_multi" and \
                    abs(root.duration - result.latency) > \
                    1e-6 * result.latency:
                self.bad = (f"{root.name} span lasted {root.duration!r} "
                            f"but the op reported latency "
                            f"{result.latency!r}")

    def _attribute(self, span, lo: float, hi: float, inherited: str) -> None:
        self.spans += 1
        layer = layer_of_span(span.name)
        if layer is None:
            layer = inherited
            self.unmapped[span.name] = self.unmapped.get(span.name, 0) + 1
        self_s = self.self_s
        cursor = hi
        children = span.children
        if children:
            if len(children) > 1:
                children = sorted(children, key=_SPAN_END, reverse=True)
            for child in children:
                end = child.end if child.end < cursor else cursor
                start = child.start if child.start > lo else lo
                if end <= start:
                    self._count_only(child)     # off the blocking path
                    continue
                self_s[layer] += cursor - end
                self._attribute(child, start, end, layer)
                cursor = start
        self_s[layer] += cursor - lo

    def _count_only(self, span) -> None:
        self.spans += 1
        for child in span.children:
            self._count_only(child)


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------

#: CPU-ledger component (up to the first ``:``) -> layer it is charged by.
LEDGER_LAYERS = {
    "pony": "transport", "rma-client": "transport", "1rma": "transport",
    "rdma": "transport", "rpc-server": "rpc", "rpc-client": "rpc",
    "cliquemap-client": "core.client", "backend": "core.backend",
}


class CounterReader:
    """Reads one set-up workload's raw monotone counters as a flat dict.

    Read before and after the timed phase; the difference is what the
    timed phase did. Everything comes from public attributes. A crashed
    backend is replaced by a fresh object with zeroed stats, so every
    backend object ever seen is kept and summed.
    """

    def __init__(self, workload):
        self.workload = workload
        self._backends: Dict[int, object] = {}

    def read(self) -> Dict[str, float]:
        cell = self.workload.cell
        for backend in cell.backends.values():
            self._backends[id(backend)] = backend
        backends = list(self._backends.values())
        out: Dict[str, float] = {"events": cell.sim._seq,
                                 "sim_now": cell.sim.now}
        counters = cell.transport.counters
        for field in ("reads", "scars", "messages", "failures", "corrupted",
                      "bytes_fetched", "batched_reads", "batched_keys"):
            out["transport." + field] = getattr(counters, field)
        hosts = list(cell.fabric.hosts.values())
        out["nic_bytes"] = sum(h.nic.bytes_sent for h in hosts)
        out["cpu.total"] = 0.0
        for host in hosts:
            for component, seconds in host.ledger.snapshot().items():
                layer = LEDGER_LAYERS.get(component.split(":", 1)[0], "other")
                out["cpu." + layer] = out.get("cpu." + layer, 0.0) + seconds
                out["cpu.total"] += seconds
        servers = [b.rpc_server for b in backends]
        if cell.sor is not None:
            servers.append(cell.sor.rpc_server)
        out["rpc.calls"] = sum(s.metrics.calls for s in servers)
        out["rpc.errors"] = sum(s.metrics.errors for s in servers)
        out["rpc.bytes"] = sum(s.metrics.total_bytes for s in servers)
        for stat in ("retries", "retries_shed", "validation_failures",
                     "inquorate", "torn_reads"):
            out["client." + stat] = sum(c.stats[stat]
                                        for c in self.workload.clients)
        out["backend.sets_applied"] = sum(b.stats.sets_applied
                                          for b in backends)
        out["backend.evictions"] = sum(
            b.stats.evictions_capacity + b.stats.evictions_associativity
            for b in backends)
        out["backend.repairs_applied"] = sum(b.stats.repairs_applied
                                             for b in backends)
        total = cell.metrics.total
        out["fabric.dropped"] = total("cliquemap_fabric_dropped_total")
        out["fabric.corrupted"] = total("cliquemap_fabric_corrupted_total")
        out["quarantines"] = total("cliquemap_backend_quarantine_total",
                                   event="enter")
        out["sor.fetches"] = total("cliquemap_sor_fetches_total")
        out["sor.writebacks"] = total("cliquemap_sor_writebacks_total")
        out["probe_ops"] = total("cliquemap_probe_ops_total")
        out["alerts_fired"] = total("cliquemap_slo_alerts_total")
        out["faults_injected"] = total("cliquemap_faults_injected_total",
                                       outcome="fired")
        plane = cell.observability
        out["scrapes"] = plane.scraper.scrapes if plane is not None else 0
        out["flight_events"] = getattr(cell.flight, "recorded", 0)
        return out


def read_gauges(workload) -> Dict[str, float]:
    """End-of-run levels (not differenced)."""
    cell = workload.cell
    # Values have one size per workload, so resident keys give the bytes.
    entry_bytes = len(workload.keys[0]) + workload.VALUE_BYTES
    resident = sum(b.resident_keys for b in cell.backends.values()
                   if b.alive)
    return {
        "dram_bytes": cell.total_dram_bytes(),
        "user_bytes": resident * entry_bytes,
        "series_count": sum(cell.metrics.family(name).series_count
                            for name in cell.metrics.families()),
    }


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def count_metrics(delta: Dict[str, float], gauges: Dict[str, float],
                  rec, timed_cpu_s: float) -> Dict[str, float]:
    """The exact-count per-layer metrics of one timed phase."""
    ops = rec.attempted
    sets = len(rec.set_lat)
    misses = rec.gets - rec.hits + rec.sor_hits   # cache-tier misses
    d = delta.get
    return {
        "sim.core.events_per_op": _per(d("events"), ops),
        "sim.core.host_ns_per_event": _per(timed_cpu_s, d("events"), 1e9),
        "transport.reads_per_op": _per(
            d("transport.reads") + d("transport.scars"), ops),
        "transport.keys_per_batched_read": _per(
            d("transport.batched_keys"), d("transport.batched_reads")),
        "transport.bytes_per_op": _per(d("transport.bytes_fetched"), ops),
        "transport.failures_per_kop": _per(d("transport.failures"), ops, 1e3),
        "transport.sim_cpu_us_per_op": _per(d("cpu.transport", 0.0), ops, 1e6),
        "net.nic_bytes_per_op": _per(d("nic_bytes"), ops),
        "net.dropped_per_kop": _per(d("fabric.dropped"), ops, 1e3),
        "net.corrupted_per_kop": _per(d("fabric.corrupted"), ops, 1e3),
        "rpc.rpcs_per_op": _per(d("rpc.calls"), ops),
        "rpc.bytes_per_op": _per(d("rpc.bytes"), ops),
        "rpc.errors_per_kop": _per(d("rpc.errors"), ops, 1e3),
        "rpc.sim_cpu_us_per_op": _per(d("cpu.rpc", 0.0), ops, 1e6),
        "core.client.attempts_per_op": _per(rec.attempts_sum,
                                            ops - rec.shed),
        "core.client.retries_per_kop": _per(d("client.retries"), ops, 1e3),
        "core.client.retries_shed_per_kop": _per(
            d("client.retries_shed"), ops, 1e3),
        "core.client.validation_failures_per_kop": _per(
            d("client.validation_failures"), ops, 1e3),
        "core.client.inquorate_per_kop": _per(d("client.inquorate"), ops, 1e3),
        "core.client.torn_reads_per_kop": _per(
            d("client.torn_reads"), ops, 1e3),
        "core.client.sim_cpu_us_per_op": _per(
            d("cpu.core.client", 0.0), ops, 1e6),
        "core.backend.sim_cpu_us_per_op": _per(
            d("cpu.core.backend", 0.0), ops, 1e6),
        "core.backend.sets_applied_per_set": _per(
            d("backend.sets_applied"), sets),
        "core.backend.evictions_per_kset": _per(
            d("backend.evictions"), sets, 1e3),
        "core.backend.dram_bytes_per_user_byte": _per(
            gauges["dram_bytes"], gauges["user_bytes"]),
        "core.resilience.quarantines": d("quarantines"),
        "core.repair.repairs_applied": d("backend.repairs_applied"),
        "storage.sor_fetches_per_miss": _per(d("sor.fetches"), misses),
        "storage.sor_writebacks_per_set": _per(d("sor.writebacks"), sets),
        "telemetry.series_count": gauges["series_count"],
        "telemetry.scrapes": d("scrapes"),
        "telemetry.flight_events": d("flight_events"),
        "observe.probe_ops": d("probe_ops"),
        "observe.alerts_fired": d("alerts_fired"),
        "faults.injected": d("faults_injected"),
    }


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


COUNT_METRIC_UNITS = {
    "sim.core.events_per_op": "1/op",
    "sim.core.host_ns_per_event": "ns",
    "transport.reads_per_op": "1/op",
    "transport.keys_per_batched_read": "count",
    "transport.bytes_per_op": "B/op",
    "transport.failures_per_kop": "1/kop",
    "transport.sim_cpu_us_per_op": "us/op",
    "net.nic_bytes_per_op": "B/op",
    "net.dropped_per_kop": "1/kop",
    "net.corrupted_per_kop": "1/kop",
    "rpc.rpcs_per_op": "1/op",
    "rpc.bytes_per_op": "B/op",
    "rpc.errors_per_kop": "1/kop",
    "rpc.sim_cpu_us_per_op": "us/op",
    "core.client.attempts_per_op": "1/op",
    "core.client.retries_per_kop": "1/kop",
    "core.client.retries_shed_per_kop": "1/kop",
    "core.client.validation_failures_per_kop": "1/kop",
    "core.client.inquorate_per_kop": "1/kop",
    "core.client.torn_reads_per_kop": "1/kop",
    "core.client.sim_cpu_us_per_op": "us/op",
    "core.backend.sim_cpu_us_per_op": "us/op",
    "core.backend.sets_applied_per_set": "count",
    "core.backend.evictions_per_kset": "1/kop",
    "core.backend.dram_bytes_per_user_byte": "B/B",
    "core.resilience.quarantines": "count",
    "core.repair.repairs_applied": "count",
    "storage.sor_fetches_per_miss": "count",
    "storage.sor_writebacks_per_set": "count",
    "telemetry.series_count": "count",
    "telemetry.scrapes": "count",
    "telemetry.flight_events": "count",
    "observe.probe_ops": "count",
    "observe.alerts_fired": "count",
    "faults.injected": "count",
}


PROBE_UNITS = {
    "sim.core.probe_events_per_s": "1/s",
    "sim.resources.probe_ns_per_grant": "ns",
    "net.probe_ns_per_deliver": "ns",
    "transport.pony.probe_ns_per_read": "ns",
    "transport.onerma.probe_ns_per_read": "ns",
    "rpc.probe_ns_per_call": "ns",
    "core.index.probe_ns_per_find": "ns",
    "telemetry.probe_ns_per_counter_inc": "ns",
    "telemetry.probe_ns_per_span": "ns",
}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.host_share"] = "share"
        units[f"{layer}.host_us_per_op"] = "us/op"
        units[f"{layer}.calls_per_op"] = "1/op"
    units["harness.profile_overhead_x"] = "x"
    for layer in SPAN_PASS_LAYERS:
        units[f"{layer}.sim_us_per_op"] = "us/op"
    units["telemetry.spans_per_op"] = "1/op"
    units["telemetry.span_pass_overhead_x"] = "x"
    units.update(COUNT_METRIC_UNITS)
    units["harness.wall_over_cpu"] = "x"
    units["harness.hashseed_digest_stable"] = "count"
    units.update(PROBE_UNITS)
    return units


#: Every per-layer metric name -> unit, in the order BENCHMARK.json lists
#: them; ``run.py`` must produce exactly these.
PER_LAYER_UNITS = _per_layer_units()
