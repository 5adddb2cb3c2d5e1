"""How a lookup settles, frozen as goldens.

A GET fetches the key's IndexEntry from its replica cohort, votes on
``(KeyHash, VersionNumber)``, and either settles (PRESENT / ABSENT), or
retries for the hazard the votes showed (§5.1). That rule runs on five
paths — singleton 2xR and SCAR, the serial R=2-immutable walk, and the
batched ``get_multi`` on Pony and on 1RMA — and what each produces under
each fault (per-key status, attempts, latency to the bit, scheduler
entries, counters, retries and batch fallbacks by reason, the span
trees) is the model's behaviour, not an accident of which copy of the
rule a path happens to run. ``GOLDEN`` is what the tree produced when
each row was stamped; a refactor of the lookup code must reproduce it
to the bit, and a deliberate behaviour change re-stamps only the rows it
names.

To re-stamp: ``PYTHONPATH=src python tests/integration/test_lookup_settle.py``
prints the table.
"""

import pprint
import zlib

import pytest

from repro.core import (BackendConfig, Cell, CellSpec, ClientConfig,
                        ReplicationMode)
from repro.net import LinkFault

NEIGHBOURS = (b"settle-a", b"settle-c")
VICTIM = b"settle-victim"
NEVER_SET = b"settle-never-set"

#: path -> (transport, replication mode, client strategy, batched?)
PATHS = {
    "2xr": ("pony", ReplicationMode.R3_2, "2xr", False),
    "scar": ("pony", ReplicationMode.R3_2, "scar", False),
    "serial": ("pony", ReplicationMode.R2_IMMUTABLE, "2xr", False),
    "multi-pony": ("pony", ReplicationMode.R3_2, None, True),
    "multi-1rma": ("1rma", ReplicationMode.R3_2, None, True),
}
QUORUM_PATHS = ("2xr", "scar", "multi-pony", "multi-1rma")
PRIMARY_PATHS = ("2xr", "multi-pony", "multi-1rma")
TINY_INDEX = dict(num_buckets=1, ways=1, overflow_rpc_fallback=True,
                  index_resize_load_factor=2.0)


class Rig:
    """A 3-shard cell, three stored keys, and the victim's cohort."""

    def __init__(self, path: str, client=None, backend=None,
                 victim_present: bool = True, fillers: int = 0):
        transport, mode, strategy, self.batched = PATHS[path]
        self.cell = Cell(CellSpec(
            mode=mode, num_shards=3, transport=transport,
            backend_config=BackendConfig(**(backend or {}))))
        self.sim = self.cell.sim
        self.client = self.cell.connect_client(
            strategy=strategy, client_config=ClientConfig(**(client or {})))
        stored = [b"settle-filler-%d" % i for i in range(fillers)]
        stored += [NEIGHBOURS[0], VICTIM, NEIGHBOURS[1]]
        if not victim_present:
            stored.remove(VICTIM)
        self.run(self._store(stored))
        placement = self.client.placement
        self.key_hash = placement.key_hash(VICTIM)
        #: the victim's replicas, logical primary first
        self.cohort = [
            self.cell.backend_by_task(self.cell.task_for_shard(shard))
            for shard in placement.shards_for(self.key_hash)]

    def run(self, gen):
        return self.sim.run(until=self.sim.process(gen))

    def _store(self, keys):
        for key in keys:
            yield from self.client.set(key, b"value-of-" + key)

    def lookup_keys(self):
        if self.batched:
            return [NEIGHBOURS[0], VICTIM, NEIGHBOURS[1], NEVER_SET]
        return [VICTIM]

    def install(self, backends, value: bytes) -> None:
        """One newer generation of the victim, on these replicas only."""
        version = self.client.versions.next()
        for backend in backends:
            self.run(backend._apply_set(VICTIM, value, version))


# -- the faults ------------------------------------------------------------------

def _crash(index):
    return lambda rig: rig.cohort[index].crash()


def _stale_view(rig):
    # An index upsize revokes the window the client's view points at.
    rig.run(rig.cohort[0]._resize_index())


def _newer_config(rig):
    rig.cohort[0].adopt_config_id(rig.cohort[0].config_id + 1)


def _dirty(rig):
    rig.install(rig.cohort[1:], b"second-generation")


def _three_way(rig):
    rig.install(rig.cohort[1:2], b"second-generation")
    rig.install(rig.cohort[2:], b"third-generation")


def _spilled(rig):
    for backend in rig.cohort:
        assert rig.key_hash in backend.overflow


def _torn(rig):
    """Every replica's copy fails its checksum for the next 40 us — an
    in-place overwrite caught mid-flight (§5.3)."""
    writes = []
    for backend in rig.cohort:
        index = backend.index
        bucket = index.bucket_for(rig.key_hash)
        entry = index.read_entry(bucket,
                                 index.find_way(bucket, rig.key_hash))
        good = backend.data.read_at(entry.offset, entry.size)
        backend.data.write_at(entry.offset,
                              good[:-1] + bytes([good[-1] ^ 0xFF]))
        writes.append((backend, entry.offset, good))

    def complete():
        yield rig.sim.delay(40e-6)
        for backend, offset, good in writes:
            backend.data.write_at(offset, good)

    rig.sim.process(complete())


def _slow(index):
    return lambda rig: rig.cell.fabric.degrade_host(
        rig.cohort[index].host, LinkFault(latency_multiplier=8.0))


def _both(*faults):
    def apply(rig):
        for fault in faults:
            fault(rig)
    return apply


FORCE_PRIMARY = dict(client=dict(force_primary_data_fetch=True))

#: scenario -> (paths it applies to, Rig kwargs, fault)
SCENARIOS = {
    "present": (PATHS, {}, None),
    "absent": (PATHS, dict(victim_present=False), None),
    "crashed": (PATHS, {}, _crash(0)),
    "stale-view": (PATHS, {}, _stale_view),
    "stale+crashed": (PATHS, {}, _both(_stale_view, _crash(1))),
    "newer-config": (PATHS, {}, _newer_config),
    "config+crashed": (PATHS, {}, _both(_newer_config, _crash(1))),
    "dirty": (PATHS, {}, _dirty),
    # The stale replica answers first, so 2xR's speculative data fetch
    # went to a replica the quorum then excludes.
    "dirty+slow-quorum": (QUORUM_PATHS, {},
                          _both(_dirty, _slow(1), _slow(2))),
    "three-way": (QUORUM_PATHS, {}, _three_way),
    "overflow-rpc-on": (PATHS, dict(backend=TINY_INDEX, fillers=6),
                        _spilled),
    "overflow-rpc-off": (PATHS, dict(backend=TINY_INDEX, fillers=6,
                                     client=dict(overflow_rpc_lookup=False)),
                         _spilled),
    "torn": (PATHS, {}, _torn),
    # The primary/backup ablation: await the logical primary's vote and
    # fetch the datum from it whenever it is in the quorum.
    "primary:slow": (PRIMARY_PATHS, FORCE_PRIMARY, _slow(0)),
    "primary:slow-absent": (
        PRIMARY_PATHS, dict(FORCE_PRIMARY, victim_present=False), _slow(0)),
    "primary:down": (PRIMARY_PATHS, FORCE_PRIMARY, _crash(0)),
    "primary:down+slow-backup": (PRIMARY_PATHS, FORCE_PRIMARY,
                                 _both(_crash(0), _slow(1))),
}
ROWS = [(scenario, path) for scenario, (paths, *_rest) in SCENARIOS.items()
        for path in paths]


# -- one row ---------------------------------------------------------------------

def _by_reason(registry, name: str) -> dict:
    out = {}
    family = registry.family(name)
    for series in family.series() if family else ():
        reason = series.labels["reason"]
        out[reason] = out.get(reason, 0) + int(series.value)
    return out


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in sorted(after)
            if after[k] != before.get(k, 0)}


def _span_digest(roots) -> str:
    """Span count and a checksum over every finished tree's shape,
    labels and durations."""
    lines = [(depth, span.name, sorted(span.labels.items()),
              repr(span.duration))
             for root in roots for depth, span in root.walk()]
    return "%d:%08x" % (len(lines), zlib.crc32(repr(lines).encode()))


def _key_line(key: bytes, result) -> str:
    """status/attempts/latency/error/which generation was served."""
    generation = {None: "-", b"value-of-" + key: "first",
                  b"second-generation": "second",
                  b"third-generation": "third"}[result.value]
    return "/".join((result.status.value, str(result.attempts),
                     repr(result.latency), result.error or "-", generation))


def measure(scenario: str, path: str) -> dict:
    _paths, kwargs, fault = SCENARIOS[scenario]
    rig = Rig(path, **kwargs)
    if fault is not None:
        fault(rig)
    sim, client, registry = rig.sim, rig.client, rig.cell.metrics
    del rig.cell.tracer.finished[:]
    seq, stats = sim._seq, dict(client.stats)
    retries = _by_reason(registry, "cliquemap_retries_total")
    fallback = _by_reason(registry, "cliquemap_batch_fallback_total")
    keys = rig.lookup_keys()
    if rig.batched:
        results = rig.run(client.get_multi(keys))
    else:
        results = [rig.run(client.get(keys[0]))]
    return {
        "keys": [_key_line(key, r) for key, r in zip(keys, results)],
        "entries": sim._seq - seq,
        "stats": _delta(stats, client.stats),
        "retries": _delta(retries,
                          _by_reason(registry, "cliquemap_retries_total")),
        "fallback": _delta(fallback, _by_reason(
            registry, "cliquemap_batch_fallback_total")),
        "spans": _span_digest(rig.cell.tracer.finished),
    }


# -- the frozen table --------------------------------------------------------------

GOLDEN = \
{'present:2xr': {'keys': ['hit/1/2.086587008144874e-05/-/first'],
                 'entries': 50,
                 'stats': {'gets': 1, 'hits': 1},
                 'retries': {},
                 'fallback': {},
                 'spans': '24:8ba2229b'},
 'present:scar': {'keys': ['hit/1/1.124819909684941e-05/-/first'],
                  'entries': 44,
                  'stats': {'gets': 1, 'hits': 1},
                  'retries': {},
                  'fallback': {},
                  'spans': '18:1b262249'},
 'present:serial': {'keys': ['hit/1/2.0544372752404733e-05/-/first'],
                    'entries': 22,
                    'stats': {'gets': 1, 'hits': 1},
                    'retries': {},
                    'fallback': {},
                    'spans': '13:3084400e'},
 'present:multi-pony': {'keys': ['hit/1/2.1210493139440655e-05/-/first',
                                 'hit/1/2.1770204240974017e-05/-/first',
                                 'hit/1/2.222087220972403e-05/-/first',
                                 'miss/1/1.291226710883203e-05/-/-'],
                        'entries': 72,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '33:5cbdb215'},
 'present:multi-1rma': {'keys': ['hit/1/2.1596995056724763e-05/-/first',
                                 'hit/1/2.146124081709908e-05/-/first',
                                 'hit/1/2.1508105686291043e-05/-/first',
                                 'miss/1/1.1536193705832874e-05/-/-'],
                        'entries': 76,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '33:0ddfa5cc'},
 'absent:2xr': {'keys': ['miss/1/1.0694171055121026e-05/-/-'],
                'entries': 38,
                'stats': {'gets': 1, 'misses': 1},
                'retries': {},
                'fallback': {},
                'spans': '17:7e421bda'},
 'absent:scar': {'keys': ['miss/1/1.0880041055121004e-05/-/-'],
                 'entries': 38,
                 'stats': {'gets': 1, 'misses': 1},
                 'retries': {},
                 'fallback': {},
                 'spans': '17:22b54a08'},
 'absent:serial': {'keys': ['miss/1/1.0104273282546803e-05/-/-'],
                   'entries': 13,
                   'stats': {'gets': 1, 'misses': 1},
                   'retries': {},
                   'fallback': {},
                   'spans': '7:b81352c4'},
 'absent:multi-pony': {'keys': ['hit/1/2.165045102843022e-05/-/first',
                                'miss/1/1.1820841385097071e-05/-/-',
                                'hit/1/2.234736394471392e-05/-/first',
                                'miss/1/1.1820841385097071e-05/-/-'],
                       'entries': 62,
                       'stats': {'gets': 4, 'hits': 2, 'misses': 2},
                       'retries': {},
                       'fallback': {},
                       'spans': '28:58588150'},
 'absent:multi-1rma': {'keys': ['hit/1/2.1717810100034996e-05/-/first',
                                'miss/1/1.1657488946668405e-05/-/-',
                                'hit/1/2.1409445469171545e-05/-/first',
                                'miss/1/1.1657488946668405e-05/-/-'],
                       'entries': 64,
                       'stats': {'gets': 4, 'hits': 2, 'misses': 2},
                       'retries': {},
                       'fallback': {},
                       'spans': '28:f52e87b0'},
 'crashed:2xr': {'keys': ['hit/1/2.0536374705449538e-05/-/first'],
                 'entries': 44,
                 'stats': {'gets': 1, 'hits': 1},
                 'retries': {},
                 'fallback': {},
                 'spans': '22:d80bbdc4'},
 'crashed:scar': {'keys': ['hit/1/1.1444065204259737e-05/-/first'],
                  'entries': 38,
                  'stats': {'gets': 1, 'hits': 1},
                  'retries': {},
                  'fallback': {},
                  'spans': '16:eab1c0c0'},
 'crashed:serial': {'keys': ['hit/1/0.0002251647544254243/-/first'],
                    'entries': 29,
                    'stats': {'gets': 1, 'hits': 1},
                    'retries': {},
                    'fallback': {},
                    'spans': '17:8a529ee9'},
 'crashed:multi-pony': {'keys': ['hit/1/0.00020504653021611652/-/first',
                                 'hit/1/0.00020504653021611652/-/first',
                                 'hit/1/0.00020504653021611652/-/first',
                                 'miss/1/0.00020504653021611652/-/-'],
                        'entries': 71,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '31:16030a41'},
 'crashed:multi-1rma': {'keys': ['hit/1/0.00020457457021611652/-/first',
                                 'hit/1/0.00020457457021611652/-/first',
                                 'hit/1/0.00020457457021611652/-/first',
                                 'miss/1/0.00020457457021611652/-/-'],
                        'entries': 74,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '31:d6e7698c'},
 'stale-view:2xr': {'keys': ['hit/1/2.0536374705449538e-05/-/first'],
                    'entries': 48,
                    'stats': {'gets': 1, 'hits': 1},
                    'retries': {},
                    'fallback': {},
                    'spans': '23:0458f337'},
 'stale-view:scar': {'keys': ['hit/1/1.1444065204259737e-05/-/first'],
                     'entries': 42,
                     'stats': {'gets': 1, 'hits': 1},
                     'retries': {},
                     'fallback': {},
                     'spans': '17:72072ef9'},
 'stale-view:serial': {'keys': ['hit/1/2.5670191925424328e-05/-/first'],
                       'entries': 28,
                       'stats': {'gets': 1, 'hits': 1},
                       'retries': {},
                       'fallback': {},
                       'spans': '18:e9c7b535'},
 'stale-view:multi-pony': {'keys': ['hit/1/2.172953308679829e-05/-/first',
                                    'hit/1/2.2289244188331654e-05/-/first',
                                    'hit/1/2.2739912157081666e-05/-/first',
                                    'miss/1/1.1758807056189624e-05/-/-'],
                           'entries': 72,
                           'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '33:8fe0435c'},
 'stale-view:multi-1rma': {'keys': ['hit/1/2.1636698407081416e-05/-/first',
                                    'hit/1/2.1500944167455733e-05/-/first',
                                    'hit/1/2.1547809036647696e-05/-/first',
                                    'miss/1/1.1258137056189524e-05/-/-'],
                           'entries': 76,
                           'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '33:90b90b60'},
 'stale+crashed:2xr': {'keys': ['hit/2/0.0003078920068864874/-/first'],
                       'entries': 91,
                       'stats': {'gets': 1,
                                 'hits': 1,
                                 'retries': 1,
                                 'view_refreshes': 1},
                       'retries': {'stale-view': 1},
                       'fallback': {},
                       'spans': '38:74ebe5fe'},
 'stale+crashed:scar': {'keys': ['hit/2/0.0002984085035468533/-/first'],
                        'entries': 77,
                        'stats': {'gets': 1,
                                  'hits': 1,
                                  'retries': 1,
                                  'view_refreshes': 1},
                        'retries': {'stale-view': 1},
                        'fallback': {},
                        'spans': '27:d7732f23'},
 'stale+crashed:serial': {'keys': ['error/10/0.004379235659825922/replica-error/-'],
                          'entries': 137,
                          'stats': {'get_errors': 1, 'gets': 1, 'retries': 10},
                          'retries': {'replica-error': 10},
                          'fallback': {},
                          'spans': '64:09bb2bed'},
 'stale+crashed:multi-pony': {'keys': ['hit/1/0.0002790012164907037/-/first',
                                       'hit/1/0.00028047289149890457/-/first',
                                       'hit/1/0.0002813847450145294/-/first',
                                       'miss/1/0.0002815380526317169/-/-'],
                              'entries': 153,
                              'stats': {'gets': 4,
                                        'hits': 3,
                                        'misses': 1,
                                        'view_refreshes': 1},
                              'retries': {},
                              'fallback': {'stale-view': 4},
                              'spans': '67:bef3c8f9'},
 'stale+crashed:multi-1rma': {'keys': ['hit/1/0.00028691407979032743/-/first',
                                       'hit/1/0.00028724506607298887/-/first',
                                       'hit/1/0.0002868245897447155/-/first',
                                       'miss/1/0.00027726419449373876/-/-'],
                              'entries': 189,
                              'stats': {'gets': 4,
                                        'hits': 3,
                                        'misses': 1,
                                        'view_refreshes': 1},
                              'retries': {},
                              'fallback': {'stale-view': 4},
                              'spans': '85:c599ff4d'},
 'newer-config:2xr': {'keys': ['hit/1/2.1358775974740702e-05/-/first'],
                      'entries': 51,
                      'stats': {'gets': 1, 'hits': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '24:4c4e0f51'},
 'newer-config:scar': {'keys': ['hit/1/1.1704796753099446e-05/-/first'],
                       'entries': 46,
                       'stats': {'gets': 1, 'hits': 1},
                       'retries': {},
                       'fallback': {},
                       'spans': '18:8d37c4cf'},
 'newer-config:serial': {'keys': ['hit/2/0.000535553738570654/-/first'],
                         'entries': 74,
                         'stats': {'config_refreshes': 1,
                                   'gets': 1,
                                   'hits': 1,
                                   'retries': 1,
                                   'view_refreshes': 3},
                         'retries': {'config-mismatch': 1},
                         'fallback': {},
                         'spans': '20:88568ac7'},
 'newer-config:multi-pony': {'keys': ['hit/1/2.172953308679829e-05/-/first',
                                      'hit/1/2.2289244188331654e-05/-/first',
                                      'hit/1/2.2739912157081666e-05/-/first',
                                      'miss/1/1.1758807056189624e-05/-/-'],
                             'entries': 72,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '33:7e3892c5'},
 'newer-config:multi-1rma': {'keys': ['hit/1/2.1914755056724766e-05/-/first',
                                      'hit/1/2.1779000817099083e-05/-/first',
                                      'hit/1/2.1825865686291046e-05/-/first',
                                      'miss/1/1.1536193705832874e-05/-/-'],
                             'entries': 76,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '33:b3cdc0c2'},
 'config+crashed:2xr': {'keys': ['hit/2/0.0007373172180405587/-/first'],
                        'entries': 122,
                        'stats': {'config_refreshes': 1,
                                  'gets': 1,
                                  'hits': 1,
                                  'retries': 1,
                                  'view_refreshes': 2},
                        'retries': {'config-mismatch': 1},
                        'fallback': {},
                        'spans': '39:0e19f69b'},
 'config+crashed:scar': {'keys': ['hit/2/0.0007279196703234085/-/first'],
                         'entries': 109,
                         'stats': {'config_refreshes': 1,
                                   'gets': 1,
                                   'hits': 1,
                                   'retries': 1,
                                   'view_refreshes': 2},
                         'retries': {'config-mismatch': 1},
                         'fallback': {},
                         'spans': '28:fbd6aa68'},
 'config+crashed:serial': {'keys': ['hit/2/0.0005424257264791194/-/first'],
                           'entries': 71,
                           'stats': {'config_refreshes': 1,
                                     'gets': 1,
                                     'hits': 1,
                                     'retries': 1,
                                     'view_refreshes': 2},
                           'retries': {'config-mismatch': 1},
                           'fallback': {},
                           'spans': '20:1eb992f1'},
 'config+crashed:multi-pony': {'keys': ['hit/1/0.0007084371371413122/-/first',
                                        'hit/1/0.0007093507719069374/-/first',
                                        'hit/1/0.0007107191058913124/-/first',
                                        'miss/1/0.0007108724135084999/-/-'],
                               'entries': 181,
                               'stats': {'config_refreshes': 1,
                                         'gets': 4,
                                         'hits': 3,
                                         'misses': 1,
                                         'view_refreshes': 2},
                               'retries': {},
                               'fallback': {'config-mismatch': 4},
                               'spans': '67:4ba6edd3'},
 'config+crashed:multi-1rma': {'keys': ['hit/1/0.0007161383283404824/-/first',
                                        'hit/1/0.0007166086399112295/-/first',
                                        'hit/1/0.0007166783503418226/-/first',
                                        'miss/1/0.0007068759269395914/-/-'],
                               'entries': 211,
                               'stats': {'config_refreshes': 1,
                                         'gets': 4,
                                         'hits': 3,
                                         'misses': 1,
                                         'view_refreshes': 2},
                               'retries': {},
                               'fallback': {'config-mismatch': 4},
                               'spans': '85:3d320da3'},
 'dirty:2xr': {'keys': ['hit/1/2.165228830539837e-05/-/second'],
               'entries': 60,
               'stats': {'gets': 1, 'hits': 1},
               'retries': {},
               'fallback': {},
               'spans': '29:e525e077'},
 'dirty:scar': {'keys': ['hit/1/1.1704459839036825e-05/-/second'],
                'entries': 46,
                'stats': {'gets': 1, 'hits': 1},
                'retries': {},
                'fallback': {},
                'spans': '18:e12531e3'},
 'dirty:serial': {'keys': ['hit/1/2.0544372752404733e-05/-/first'],
                  'entries': 22,
                  'stats': {'gets': 1, 'hits': 1},
                  'retries': {},
                  'fallback': {},
                  'spans': '13:b8940566'},
 'dirty:multi-pony': {'keys': ['hit/1/2.1210493139440655e-05/-/first',
                               'hit/1/2.2409829714290148e-05/-/second',
                               'hit/1/2.1766769865974134e-05/-/first',
                               'miss/1/1.251226710883202e-05/-/-'],
                      'entries': 72,
                      'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '33:806ea2d7'},
 'dirty:multi-1rma': {'keys': ['hit/1/2.1596995056724763e-05/-/first',
                               'hit/1/2.1786178186290902e-05/-/second',
                               'hit/1/2.1457415817099077e-05/-/first',
                               'miss/1/1.1536193705832874e-05/-/-'],
                      'entries': 76,
                      'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '33:c124b82a'},
 'dirty+slow-quorum:2xr': {'keys': ['hit/1/0.00014116503967746981/-/second'],
                           'entries': 60,
                           'stats': {'gets': 1, 'hits': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '29:721dfdb8'},
 'dirty+slow-quorum:scar': {'keys': ['hit/1/7.129423218095292e-05/-/second'],
                            'entries': 46,
                            'stats': {'gets': 1, 'hits': 1},
                            'retries': {},
                            'fallback': {},
                            'spans': '18:2d988813'},
 'dirty+slow-quorum:multi-pony': {'keys': ['hit/1/7.949678606095057e-05/-/first',
                                           'hit/1/0.0001428936417703176/-/second',
                                           'hit/1/7.994745402970058e-05/-/first',
                                           'miss/1/7.253600644951768e-05/-/-'],
                                  'entries': 72,
                                  'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                                  'retries': {},
                                  'fallback': {},
                                  'spans': '33:2fb382ca'},
 'dirty+slow-quorum:multi-1rma': {'keys': ['hit/1/7.995162275321595e-05/-/first',
                                           'hit/1/0.0001427453936453174/-/second',
                                           'hit/1/8.000529214160796e-05/-/first',
                                           'miss/1/7.203533644951758e-05/-/-'],
                                  'entries': 76,
                                  'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                                  'retries': {},
                                  'fallback': {},
                                  'spans': '33:46c8c4f7'},
 'three-way:2xr': {'keys': ['error/10/0.004099102610399179/inquorate/-'],
                   'entries': 483,
                   'stats': {'get_errors': 1,
                             'gets': 1,
                             'inquorate': 10,
                             'retries': 10},
                   'retries': {'inquorate': 10},
                   'fallback': {},
                   'spans': '218:e2906514'},
 'three-way:scar': {'keys': ['error/10/0.004098651118649595/inquorate/-'],
                    'entries': 429,
                    'stats': {'get_errors': 1,
                              'gets': 1,
                              'inquorate': 10,
                              'retries': 10},
                    'retries': {'inquorate': 10},
                    'fallback': {},
                    'spans': '170:c4bc388f'},
 'three-way:multi-pony': {'keys': ['hit/1/2.1210493139440655e-05/-/first',
                                   'error/10/0.004120575372728145/inquorate/-',
                                   'hit/1/2.1766769865974134e-05/-/first',
                                   'miss/1/1.251226710883202e-05/-/-'],
                          'entries': 484,
                          'stats': {'get_errors': 1,
                                    'gets': 4,
                                    'hits': 2,
                                    'inquorate': 10,
                                    'misses': 1,
                                    'retries': 10},
                          'retries': {'inquorate': 10},
                          'fallback': {'inquorate': 1},
                          'spans': '198:c8e945b0'},
 'three-way:multi-1rma': {'keys': ['hit/1/2.1596995056724763e-05/-/first',
                                   'error/10/0.004113831400295442/inquorate/-',
                                   'hit/1/2.1457415817099077e-05/-/first',
                                   'miss/1/1.1536193705832874e-05/-/-'],
                          'entries': 537,
                          'stats': {'get_errors': 1,
                                    'gets': 4,
                                    'hits': 2,
                                    'inquorate': 10,
                                    'misses': 1,
                                    'retries': 10},
                          'retries': {'inquorate': 10},
                          'fallback': {'inquorate': 1},
                          'spans': '245:c4d9a8e2'},
 'overflow-rpc-on:2xr': {'keys': ['hit/1/7.281980986909779e-05/-/first'],
                         'entries': 54,
                         'stats': {'gets': 1,
                                   'hits': 1,
                                   'overflow_lookups': 1},
                         'retries': {},
                         'fallback': {},
                         'spans': '23:d0eabd4b'},
 'overflow-rpc-on:scar': {'keys': ['hit/1/7.300530486909775e-05/-/first'],
                          'entries': 54,
                          'stats': {'gets': 1,
                                    'hits': 1,
                                    'overflow_lookups': 1},
                          'retries': {},
                          'fallback': {},
                          'spans': '23:b4053db6'},
 'overflow-rpc-on:serial': {'keys': ['hit/1/7.203457549032218e-05/-/first'],
                            'entries': 28,
                            'stats': {'gets': 1,
                                      'hits': 1,
                                      'overflow_lookups': 1},
                            'retries': {},
                            'fallback': {},
                            'spans': '13:352558aa'},
 'overflow-rpc-on:multi-pony': {'keys': ['hit/1/7.32641813954557e-05/-/first',
                                         'hit/1/7.338322903225236e-05/-/first',
                                         'hit/1/7.343893524908401e-05/-/first',
                                         'miss/1/0.00019782004718144346/-/-'],
                                'entries': 132,
                                'stats': {'gets': 4,
                                          'hits': 3,
                                          'misses': 1,
                                          'overflow_lookups': 4},
                                'retries': {},
                                'fallback': {},
                                'spans': '52:c5665416'},
 'overflow-rpc-on:multi-1rma': {'keys': ['hit/1/7.263088885505354e-05/-/first',
                                         'hit/1/7.27499364918502e-05/-/first',
                                         'hit/1/7.280564270868185e-05/-/first',
                                         'miss/1/0.0001971867546410413/-/-'],
                                'entries': 130,
                                'stats': {'gets': 4,
                                          'hits': 3,
                                          'misses': 1,
                                          'overflow_lookups': 4},
                                'retries': {},
                                'fallback': {},
                                'spans': '52:5b845be7'},
 'overflow-rpc-off:2xr': {'keys': ['miss/1/1.0464307385755914e-05/-/-'],
                          'entries': 38,
                          'stats': {'gets': 1, 'misses': 1},
                          'retries': {},
                          'fallback': {},
                          'spans': '17:95810506'},
 'overflow-rpc-off:scar': {'keys': ['miss/1/1.0649802385755873e-05/-/-'],
                           'entries': 38,
                           'stats': {'gets': 1, 'misses': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '17:ff76db36'},
 'overflow-rpc-off:serial': {'keys': ['miss/1/9.823397076508342e-06/-/-'],
                             'entries': 13,
                             'stats': {'gets': 1, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '7:3d0cfd91'},
 'overflow-rpc-off:multi-pony': {'keys': ['miss/1/1.1083772066288562e-05/-/-',
                                          'miss/1/1.1083772066288562e-05/-/-',
                                          'miss/1/1.1083772066288562e-05/-/-',
                                          'miss/1/1.1083772066288562e-05/-/-'],
                                 'entries': 40,
                                 'stats': {'gets': 4, 'misses': 4},
                                 'retries': {},
                                 'fallback': {},
                                 'spans': '18:e834cdf9'},
 'overflow-rpc-off:multi-1rma': {'keys': ['miss/1/1.0450479525886402e-05/-/-',
                                          'miss/1/1.0450479525886402e-05/-/-',
                                          'miss/1/1.0450479525886402e-05/-/-',
                                          'miss/1/1.0450479525886402e-05/-/-'],
                                 'entries': 38,
                                 'stats': {'gets': 4, 'misses': 4},
                                 'retries': {},
                                 'fallback': {},
                                 'spans': '18:e2e1a1a7'},
 'torn:2xr': {'keys': ['hit/2/6.177851808534596e-05/-/first'],
              'entries': 91,
              'stats': {'gets': 1,
                        'hits': 1,
                        'retries': 1,
                        'torn_reads': 1,
                        'validation_failures': 1},
              'retries': {'validation-torn-or-stale': 1},
              'fallback': {},
              'spans': '48:30b61541'},
 'torn:scar': {'keys': ['hit/2/5.382592556490691e-05/-/first'],
               'entries': 88,
               'stats': {'gets': 1,
                         'hits': 1,
                         'retries': 1,
                         'torn_reads': 3,
                         'validation_failures': 1},
               'retries': {'validation-torn-or-stale': 1},
               'fallback': {},
               'spans': '42:aa1a5ab1'},
 'torn:serial': {'keys': ['hit/2/8.188937174908055e-05/-/first'],
                 'entries': 55,
                 'stats': {'gets': 1,
                           'hits': 1,
                           'retries': 1,
                           'torn_reads': 2,
                           'validation_failures': 1},
                 'retries': {'validation-torn-or-stale': 1},
                 'fallback': {},
                 'spans': '38:5fcd0787'},
 'torn:multi-pony': {'keys': ['hit/1/2.1210493139440655e-05/-/first',
                              'hit/2/7.562655930721184e-05/-/first',
                              'hit/1/2.222087220972403e-05/-/first',
                              'miss/1/1.291226710883203e-05/-/-'],
                     'entries': 151,
                     'stats': {'gets': 4,
                               'hits': 3,
                               'misses': 1,
                               'retries': 1,
                               'torn_reads': 4,
                               'validation_failures': 1},
                     'retries': {'validation-torn-or-stale': 1},
                     'fallback': {'validation-torn-or-stale': 1},
                     'spans': '75:10da773e'},
 'torn:multi-1rma': {'keys': ['hit/1/2.1596995056724763e-05/-/first',
                              'hit/2/8.378156640495842e-05/-/first',
                              'hit/1/2.1508105686291043e-05/-/first',
                              'miss/1/1.1536193705832874e-05/-/-'],
                     'entries': 174,
                     'stats': {'gets': 4,
                               'hits': 3,
                               'misses': 1,
                               'retries': 1,
                               'torn_reads': 2,
                               'validation_failures': 1},
                     'retries': {'validation-torn-or-stale': 1},
                     'fallback': {'validation-torn-or-stale': 1},
                     'spans': '81:2984d2a2'},
 'primary:slow:2xr': {'keys': ['hit/1/0.00014208546346408787/-/first'],
                      'entries': 51,
                      'stats': {'gets': 1, 'hits': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '24:e0b9fee6'},
 'primary:slow:multi-pony': {'keys': ['hit/1/7.119418687065622e-05/-/first',
                                      'hit/1/0.0001428025024483823/-/first',
                                      'hit/1/7.119418687065622e-05/-/first',
                                      'miss/1/7.119418687065622e-05/-/-'],
                             'entries': 72,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '33:6f4bfe46'},
 'primary:slow:multi-1rma': {'keys': ['hit/1/7.10639768706561e-05/-/first',
                                      'hit/1/0.00014302490963588209/-/first',
                                      'hit/1/7.10639768706561e-05/-/first',
                                      'miss/1/7.10639768706561e-05/-/-'],
                             'entries': 76,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '33:f329c483'},
 'primary:slow-absent:2xr': {'keys': ['miss/1/7.083366344096738e-05/-/-'],
                             'entries': 40,
                             'stats': {'gets': 1, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '17:64dd0f40'},
 'primary:slow-absent:multi-pony': {'keys': ['hit/1/7.206278108077657e-05/-/first',
                                             'miss/1/7.206278108077657e-05/-/-',
                                             'hit/1/7.206278108077657e-05/-/first',
                                             'miss/1/7.206278108077657e-05/-/-'],
                                    'entries': 62,
                                    'stats': {'gets': 4,
                                              'hits': 2,
                                              'misses': 2},
                                    'retries': {},
                                    'fallback': {},
                                    'spans': '28:690b0a07'},
 'primary:slow-absent:multi-1rma': {'keys': ['hit/1/7.193257108077645e-05/-/first',
                                             'miss/1/7.193257108077645e-05/-/-',
                                             'hit/1/7.193257108077645e-05/-/first',
                                             'miss/1/7.193257108077645e-05/-/-'],
                                    'entries': 64,
                                    'stats': {'gets': 4,
                                              'hits': 2,
                                              'misses': 2},
                                    'retries': {},
                                    'fallback': {},
                                    'spans': '28:544007b7'},
 'primary:down:2xr': {'keys': ['hit/1/0.00021492371908202526/-/first'],
                      'entries': 51,
                      'stats': {'gets': 1, 'hits': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '22:93b844f0'},
 'primary:down:multi-pony': {'keys': ['hit/1/0.00020504653021611652/-/first',
                                      'hit/1/0.00021516228206087495/-/first',
                                      'hit/1/0.00020504653021611652/-/first',
                                      'miss/1/0.00020504653021611652/-/-'],
                             'entries': 72,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '31:f2fe3b0f'},
 'primary:down:multi-1rma': {'keys': ['hit/1/0.00020457457021611652/-/first',
                                      'hit/1/0.00021504293924837486/-/first',
                                      'hit/1/0.00020457457021611652/-/first',
                                      'miss/1/0.00020457457021611652/-/-'],
                             'entries': 74,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '31:2dccafe8'},
 'primary:down+slow-backup:2xr': {'keys': ['hit/1/0.00021473013030505505/-/first'],
                                  'entries': 50,
                                  'stats': {'gets': 1, 'hits': 1},
                                  'retries': {},
                                  'fallback': {},
                                  'spans': '22:9f6eaf2c'},
 'primary:down+slow-backup:multi-pony': {'keys': ['hit/1/0.00020504653021611652/-/first',
                                                  'hit/1/0.00021516228206087495/-/first',
                                                  'hit/1/0.00020504653021611652/-/first',
                                                  'miss/1/0.00020504653021611652/-/-'],
                                         'entries': 71,
                                         'stats': {'gets': 4,
                                                   'hits': 3,
                                                   'misses': 1},
                                         'retries': {},
                                         'fallback': {},
                                         'spans': '31:5401ccb2'},
 'primary:down+slow-backup:multi-1rma': {'keys': ['hit/1/0.00020457457021611652/-/first',
                                                  'hit/1/0.00021504293924837486/-/first',
                                                  'hit/1/0.00020457457021611652/-/first',
                                                  'miss/1/0.00020457457021611652/-/-'],
                                         'entries': 74,
                                         'stats': {'gets': 4,
                                                   'hits': 3,
                                                   'misses': 1},
                                         'retries': {},
                                         'fallback': {},
                                         'spans': '31:7f6ae2fe'}}


@pytest.mark.parametrize("scenario,path", ROWS,
                         ids=[f"{s}:{p}" for s, p in ROWS])
def test_lookup_settles_as_stamped(scenario, path):
    assert measure(scenario, path) == GOLDEN[f"{scenario}:{path}"]


def test_the_table_covers_every_row():
    assert sorted(GOLDEN) == sorted(f"{s}:{p}" for s, p in ROWS)


if __name__ == "__main__":
    print("GOLDEN = \\")
    pprint.pprint({f"{s}:{p}": measure(s, p) for s, p in ROWS},
                  width=79, sort_dicts=False)
