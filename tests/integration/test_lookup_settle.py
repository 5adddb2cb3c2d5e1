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
{'present:2xr': {'keys': ['hit/1/2.0317936068847166e-05/-/first'],
                 'entries': 58,
                 'stats': {'gets': 1, 'hits': 1},
                 'retries': {},
                 'fallback': {},
                 'spans': '52:57e1405e'},
 'present:scar': {'keys': ['hit/1/1.1135045883598144e-05/-/first'],
                  'entries': 50,
                  'stats': {'gets': 1, 'hits': 1},
                  'retries': {},
                  'fallback': {},
                  'spans': '39:967c615b'},
 'present:serial': {'keys': ['hit/1/2.0289489865848347e-05/-/first'],
                    'entries': 26,
                    'stats': {'gets': 1, 'hits': 1},
                    'retries': {},
                    'fallback': {},
                    'spans': '27:c2b776d8'},
 'present:multi-pony': {'keys': ['hit/1/2.1625364230467886e-05/-/first',
                                 'hit/1/2.222896445243426e-05/-/first',
                                 'hit/1/2.2863714296576234e-05/-/first',
                                 'miss/1/1.1804533578910572e-05/-/-'],
                        'entries': 84,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '72:38ffece6'},
 'present:multi-1rma': {'keys': ['hit/1/2.126209971307425e-05/-/first',
                                 'hit/1/2.139847212411167e-05/-/first',
                                 'hit/1/2.174204977918267e-05/-/first',
                                 'miss/1/1.1406802499017155e-05/-/-'],
                        'entries': 88,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '72:7f1a6387'},
 'absent:2xr': {'keys': ['miss/1/1.0732046823265376e-05/-/-'],
                'entries': 44,
                'stats': {'gets': 1, 'misses': 1},
                'retries': {},
                'fallback': {},
                'spans': '38:7bffcaea'},
 'absent:scar': {'keys': ['miss/1/1.0917916823265355e-05/-/-'],
                 'entries': 44,
                 'stats': {'gets': 1, 'misses': 1},
                 'retries': {},
                 'fallback': {},
                 'spans': '38:9d84aaaf'},
 'absent:serial': {'keys': ['miss/1/1.0029571573582892e-05/-/-'],
                   'entries': 15,
                   'stats': {'gets': 1, 'misses': 1},
                   'retries': {},
                   'fallback': {},
                   'spans': '14:cdb2e15f'},
 'absent:multi-pony': {'keys': ['hit/1/2.2440531808426054e-05/-/first',
                                'miss/1/1.1912644323265305e-05/-/-',
                                'hit/1/2.1958257443329874e-05/-/first',
                                'miss/1/1.1912644323265305e-05/-/-'],
                       'entries': 72,
                       'stats': {'gets': 4, 'hits': 2, 'misses': 2},
                       'retries': {},
                       'fallback': {},
                       'spans': '60:607d819f'},
 'absent:multi-1rma': {'keys': ['hit/1/2.1717331316543627e-05/-/first',
                                'miss/1/1.1598395765649127e-05/-/-',
                                'hit/1/2.1299275448213514e-05/-/first',
                                'miss/1/1.1598395765649127e-05/-/-'],
                       'entries': 74,
                       'stats': {'gets': 4, 'hits': 2, 'misses': 2},
                       'retries': {},
                       'fallback': {},
                       'spans': '60:bc3a7837'},
 'crashed:2xr': {'keys': ['hit/1/1.992921565758404e-05/-/first'],
                 'entries': 51,
                 'stats': {'gets': 1, 'hits': 1},
                 'retries': {},
                 'fallback': {},
                 'spans': '46:6e8b3645'},
 'crashed:scar': {'keys': ['hit/1/1.1407127147454845e-05/-/first'],
                  'entries': 43,
                  'stats': {'gets': 1, 'hits': 1},
                  'retries': {},
                  'fallback': {},
                  'spans': '33:b46077f7'},
 'crashed:serial': {'keys': ['hit/1/0.00022493114676980122/-/first'],
                    'entries': 34,
                    'stats': {'gets': 1, 'hits': 1},
                    'retries': {},
                    'fallback': {},
                    'spans': '34:67c5b59f'},
 'crashed:multi-pony': {'keys': ['hit/1/0.0002049048734647129/-/first',
                                 'hit/1/0.0002049048734647129/-/first',
                                 'hit/1/0.0002049048734647129/-/first',
                                 'miss/1/0.0002049048734647129/-/-'],
                        'entries': 81,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '67:671bda3e'},
 'crashed:multi-1rma': {'keys': ['hit/1/0.00020443291346471288/-/first',
                                 'hit/1/0.00020443291346471288/-/first',
                                 'hit/1/0.00020443291346471288/-/first',
                                 'miss/1/0.00020443291346471288/-/-'],
                        'entries': 85,
                        'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                        'retries': {},
                        'fallback': {},
                        'spans': '67:970b4889'},
 'stale-view:2xr': {'keys': ['hit/1/1.992921565758404e-05/-/first'],
                    'entries': 55,
                    'stats': {'gets': 1, 'hits': 1},
                    'retries': {},
                    'fallback': {},
                    'spans': '47:72f9334f'},
 'stale-view:scar': {'keys': ['hit/1/1.1407127147454845e-05/-/first'],
                     'entries': 47,
                     'stats': {'gets': 1, 'hits': 1},
                     'retries': {},
                     'fallback': {},
                     'spans': '34:44cc96b2'},
 'stale-view:serial': {'keys': ['hit/1/2.543658426980126e-05/-/first'],
                       'entries': 33,
                       'stats': {'gets': 1, 'hits': 1},
                       'retries': {},
                       'fallback': {},
                       'spans': '35:01dc559e'},
 'stale-view:multi-pony': {'keys': ['hit/1/2.1413802369420112e-05/-/first',
                                    'hit/1/2.2017402591386487e-05/-/first',
                                    'hit/1/2.265215243552846e-05/-/first',
                                    'miss/1/1.1592971717862798e-05/-/-'],
                           'entries': 84,
                           'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '72:478c96f6'},
 'stale-view:multi-1rma': {'keys': ['hit/1/2.1579859713074254e-05/-/first',
                                    'hit/1/2.1716232124111673e-05/-/first',
                                    'hit/1/2.2059809779182674e-05/-/first',
                                    'miss/1/1.1406802499017155e-05/-/-'],
                           'entries': 88,
                           'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '72:271394f8'},
 'stale+crashed:2xr': {'keys': ['hit/2/0.00030747082005868525/-/first'],
                       'entries': 105,
                       'stats': {'gets': 1,
                                 'hits': 1,
                                 'retries': 1,
                                 'view_refreshes': 1},
                       'retries': {'stale-view': 1},
                       'fallback': {},
                       'spans': '79:a2fed84f'},
 'stale+crashed:scar': {'keys': ['hit/2/0.00029812682294101623/-/first'],
                        'entries': 87,
                        'stats': {'gets': 1,
                                  'hits': 1,
                                  'retries': 1,
                                  'view_refreshes': 1},
                        'retries': {'stale-view': 1},
                        'fallback': {},
                        'spans': '54:4dfcc8f3'},
 'stale+crashed:serial': {'keys': ['error/10/0.004379147301388648/replica-error/-'],
                          'entries': 152,
                          'stats': {'get_errors': 1, 'gets': 1, 'retries': 10},
                          'retries': {'replica-error': 10},
                          'fallback': {},
                          'spans': '97:2602d19c'},
 'stale+crashed:multi-pony': {'keys': ['hit/1/0.00027876990927755353/-/first',
                                       'hit/1/0.0002792269463869287/-/first',
                                       'hit/1/0.00028108896025181413/-/first',
                                       'miss/1/0.0002803299749002516/-/-'],
                              'entries': 176,
                              'stats': {'gets': 4,
                                        'hits': 3,
                                        'misses': 1,
                                        'view_refreshes': 1},
                              'retries': {},
                              'fallback': {'stale-view': 4},
                              'spans': '138:6eed6267'},
 'stale+crashed:multi-1rma': {'keys': ['hit/1/0.00028638034743796244/-/first',
                                       'hit/1/0.0002861709078219043/-/first',
                                       'hit/1/0.000286629004140247/-/first',
                                       'miss/1/0.00027657664448372393/-/-'],
                              'entries': 218,
                              'stats': {'gets': 4,
                                        'hits': 3,
                                        'misses': 1,
                                        'view_refreshes': 1},
                              'retries': {},
                              'fallback': {'stale-view': 4},
                              'spans': '177:1a9715ab'},
 'newer-config:2xr': {'keys': ['hit/1/2.0317936068847166e-05/-/first'],
                      'entries': 59,
                      'stats': {'gets': 1, 'hits': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '52:2efa72fa'},
 'newer-config:scar': {'keys': ['hit/1/1.1591643539848179e-05/-/first'],
                       'entries': 52,
                       'stats': {'gets': 1, 'hits': 1},
                       'retries': {},
                       'fallback': {},
                       'spans': '39:4854bac1'},
 'newer-config:serial': {'keys': ['hit/2/0.0005349344705077557/-/first'],
                         'entries': 86,
                         'stats': {'config_refreshes': 1,
                                   'gets': 1,
                                   'hits': 1,
                                   'retries': 1,
                                   'view_refreshes': 3},
                         'retries': {'config-mismatch': 1},
                         'fallback': {},
                         'spans': '41:b0a6e6bc'},
 'newer-config:multi-pony': {'keys': ['hit/1/2.1625364230467886e-05/-/first',
                                      'hit/1/2.222896445243426e-05/-/first',
                                      'hit/1/2.2863714296576234e-05/-/first',
                                      'miss/1/1.1804533578910572e-05/-/-'],
                             'entries': 84,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '72:20945740'},
 'newer-config:multi-1rma': {'keys': ['hit/1/2.1579859713074254e-05/-/first',
                                      'hit/1/2.1716232124111673e-05/-/first',
                                      'hit/1/2.2059809779182674e-05/-/first',
                                      'miss/1/1.1406802499017155e-05/-/-'],
                             'entries': 88,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '72:11a630dd'},
 'config+crashed:2xr': {'keys': ['hit/2/0.0007369538227856967/-/first'],
                        'entries': 140,
                        'stats': {'config_refreshes': 1,
                                  'gets': 1,
                                  'hits': 1,
                                  'retries': 1,
                                  'view_refreshes': 2},
                        'retries': {'config-mismatch': 1},
                        'fallback': {},
                        'spans': '84:ada3d5f5'},
 'config+crashed:scar': {'keys': ['hit/2/0.0007277370647822704/-/first'],
                         'entries': 123,
                         'stats': {'config_refreshes': 1,
                                   'gets': 1,
                                   'hits': 1,
                                   'retries': 1,
                                   'view_refreshes': 2},
                         'retries': {'config-mismatch': 1},
                         'fallback': {},
                         'spans': '59:4c4a27bf'},
 'config+crashed:serial': {'keys': ['hit/2/0.0005420380186576398/-/first'],
                           'entries': 82,
                           'stats': {'config_refreshes': 1,
                                     'gets': 1,
                                     'hits': 1,
                                     'retries': 1,
                                     'view_refreshes': 2},
                           'retries': {'config-mismatch': 1},
                           'fallback': {},
                           'spans': '41:66fa913b'},
 'config+crashed:multi-pony': {'keys': ['hit/1/0.0007084172127571606/-/first',
                                        'hit/1/0.0007088742498665357/-/first',
                                        'hit/1/0.0007106983963509106/-/first',
                                        'miss/1/0.0007099394109993481/-/-'],
                               'entries': 207,
                               'stats': {'config_refreshes': 1,
                                         'gets': 4,
                                         'hits': 3,
                                         'misses': 1,
                                         'view_refreshes': 2},
                               'retries': {},
                               'fallback': {'config-mismatch': 4},
                               'spans': '138:2bf123ed'},
 'config+crashed:multi-1rma': {'keys': ['hit/1/0.0007162648198871425/-/first',
                                        'hit/1/0.000716059125395205/-/first',
                                        'hit/1/0.0007156653551450152/-/first',
                                        'miss/1/0.0007062480936164789/-/-'],
                               'entries': 243,
                               'stats': {'config_refreshes': 1,
                                         'gets': 4,
                                         'hits': 3,
                                         'misses': 1,
                                         'view_refreshes': 2},
                               'retries': {},
                               'fallback': {'config-mismatch': 4},
                               'spans': '177:c371a83b'},
 'dirty:2xr': {'keys': ['hit/1/2.0316218881347116e-05/-/second'],
               'entries': 59,
               'stats': {'gets': 1, 'hits': 1},
               'retries': {},
               'fallback': {},
               'spans': '52:9ac1cf3c'},
 'dirty:scar': {'keys': ['hit/1/1.1589648032035694e-05/-/second'],
                'entries': 52,
                'stats': {'gets': 1, 'hits': 1},
                'retries': {},
                'fallback': {},
                'spans': '39:bc5a125d'},
 'dirty:serial': {'keys': ['hit/1/2.0289489865848347e-05/-/first'],
                  'entries': 26,
                  'stats': {'gets': 1, 'hits': 1},
                  'retries': {},
                  'fallback': {},
                  'spans': '27:c2b776d8'},
 'dirty:multi-pony': {'keys': ['hit/1/2.1625364230467886e-05/-/first',
                               'hit/1/2.2865431484076068e-05/-/second',
                               'hit/1/2.2225530077434378e-05/-/first',
                               'miss/1/1.1804533578910572e-05/-/-'],
                      'entries': 84,
                      'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '72:2e7dd2d1'},
 'dirty:multi-1rma': {'keys': ['hit/1/2.126209971307425e-05/-/first',
                               'hit/1/2.202012227918253e-05/-/second',
                               'hit/1/2.1394647124111667e-05/-/first',
                               'miss/1/1.1406802499017155e-05/-/-'],
                      'entries': 88,
                      'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '72:54a0ff17'},
 'dirty+slow-quorum:2xr': {'keys': ['hit/1/0.00013958438244344063/-/second'],
                           'entries': 70,
                           'stats': {'gets': 1, 'hits': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '64:d88f1f65'},
 'dirty+slow-quorum:scar': {'keys': ['hit/1/7.006734476390508e-05/-/second'],
                            'entries': 52,
                            'stats': {'gets': 1, 'hits': 1},
                            'retries': {},
                            'fallback': {},
                            'spans': '39:721a3c64'},
 'dirty+slow-quorum:multi-pony': {'keys': ['hit/1/8.10040806436958e-05/-/first',
                                           'hit/1/0.0001444331613584623/-/second',
                                           'hit/1/8.160424649066229e-05/-/first',
                                           'miss/1/7.245574999213851e-05/-/-'],
                                  'entries': 84,
                                  'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                                  'retries': {},
                                  'fallback': {},
                                  'spans': '72:fdcf9328'},
 'dirty+slow-quorum:multi-1rma': {'keys': ['hit/1/8.085563720619548e-05/-/first',
                                           'hit/1/0.00014440063028582357/-/second',
                                           'hit/1/8.09881846172329e-05/-/first',
                                           'miss/1/7.207079704449988e-05/-/-'],
                                  'entries': 88,
                                  'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                                  'retries': {},
                                  'fallback': {},
                                  'spans': '72:1d9d58c0'},
 'three-way:2xr': {'keys': ['error/10/0.004099406846549287/inquorate/-'],
                   'entries': 562,
                   'stats': {'get_errors': 1,
                             'gets': 1,
                             'inquorate': 10,
                             'retries': 10},
                   'retries': {'inquorate': 10},
                   'fallback': {},
                   'spans': '493:4d7f5b9c'},
 'three-way:scar': {'keys': ['error/10/0.0040988667507342955/inquorate/-'],
                    'entries': 489,
                    'stats': {'get_errors': 1,
                              'gets': 1,
                              'inquorate': 10,
                              'retries': 10},
                    'retries': {'inquorate': 10},
                    'fallback': {},
                    'spans': '380:2d8f5256'},
 'three-way:multi-pony': {'keys': ['hit/1/2.1781608413794077e-05/-/first',
                                   'error/10/0.004121497659015037/inquorate/-',
                                   'hit/1/2.223227638254409e-05/-/first',
                                   'miss/1/1.1804533578910572e-05/-/-'],
                          'entries': 554,
                          'stats': {'get_errors': 1,
                                    'gets': 4,
                                    'hits': 2,
                                    'inquorate': 10,
                                    'misses': 1,
                                    'retries': 10},
                          'retries': {'inquorate': 10},
                          'fallback': {'inquorate': 1},
                          'spans': '440:5912a58f'},
 'three-way:multi-1rma': {'keys': ['hit/1/2.1418343896400442e-05/-/first',
                                   'error/10/0.00411344151326455/inquorate/-',
                                   'hit/1/2.1295149245895216e-05/-/first',
                                   'miss/1/1.1406802499017155e-05/-/-'],
                          'entries': 625,
                          'stats': {'get_errors': 1,
                                    'gets': 4,
                                    'hits': 2,
                                    'inquorate': 10,
                                    'misses': 1,
                                    'retries': 10},
                          'retries': {'inquorate': 10},
                          'fallback': {'inquorate': 1},
                          'spans': '550:f9e20124'},
 'overflow-rpc-on:2xr': {'keys': ['hit/1/7.279904614838971e-05/-/first'],
                         'entries': 62,
                         'stats': {'gets': 1,
                                   'hits': 1,
                                   'overflow_lookups': 1},
                         'retries': {},
                         'fallback': {},
                         'spans': '50:40faa2ba'},
 'overflow-rpc-on:scar': {'keys': ['hit/1/7.298454114838967e-05/-/first'],
                          'entries': 62,
                          'stats': {'gets': 1,
                                    'hits': 1,
                                    'overflow_lookups': 1},
                          'retries': {},
                          'fallback': {},
                          'spans': '50:bfc57c2b'},
 'overflow-rpc-on:serial': {'keys': ['hit/1/7.18266395630285e-05/-/first'],
                            'entries': 32,
                            'stats': {'gets': 1,
                                      'hits': 1,
                                      'overflow_lookups': 1},
                            'retries': {},
                            'fallback': {},
                            'spans': '26:a843c987'},
 'overflow-rpc-on:multi-pony': {'keys': ['hit/1/7.3181449812376e-05/-/first',
                                         'hit/1/7.313620088717485e-05/-/first',
                                         'hit/1/7.373267057833328e-05/-/first',
                                         'miss/1/0.00019854365033710993/-/-'],
                                'entries': 150,
                                'stats': {'gets': 4,
                                          'hits': 3,
                                          'misses': 1,
                                          'overflow_lookups': 4},
                                'retries': {},
                                'fallback': {},
                                'spans': '106:142d7b87'},
 'overflow-rpc-on:multi-1rma': {'keys': ['hit/1/7.253673981237586e-05/-/first',
                                         'hit/1/7.249149088717471e-05/-/first',
                                         'hit/1/7.308796057833313e-05/-/first',
                                         'miss/1/0.00019789894033710978/-/-'],
                                'entries': 148,
                                'stats': {'gets': 4,
                                          'hits': 3,
                                          'misses': 1,
                                          'overflow_lookups': 4},
                                'retries': {},
                                'fallback': {},
                                'spans': '106:78eee7a5'},
 'overflow-rpc-off:2xr': {'keys': ['miss/1/1.0519254237358446e-05/-/-'],
                          'entries': 44,
                          'stats': {'gets': 1, 'misses': 1},
                          'retries': {},
                          'fallback': {},
                          'spans': '38:7a5d71c1'},
 'overflow-rpc-off:scar': {'keys': ['miss/1/1.0704749237358405e-05/-/-'],
                           'entries': 44,
                           'stats': {'gets': 1, 'misses': 1},
                           'retries': {},
                           'fallback': {},
                           'spans': '38:1b0d09c3'},
 'overflow-rpc-off:serial': {'keys': ['miss/1/9.895008764098604e-06/-/-'],
                             'entries': 15,
                             'stats': {'gets': 1, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '14:3d4787f4'},
 'overflow-rpc-off:multi-pony': {'keys': ['miss/1/1.1270649237358609e-05/-/-',
                                          'miss/1/1.1270649237358609e-05/-/-',
                                          'miss/1/1.1270649237358609e-05/-/-',
                                          'miss/1/1.1270649237358609e-05/-/-'],
                                 'entries': 46,
                                 'stats': {'gets': 4, 'misses': 4},
                                 'retries': {},
                                 'fallback': {},
                                 'spans': '36:58e59438'},
 'overflow-rpc-off:multi-1rma': {'keys': ['miss/1/1.0625939237358462e-05/-/-',
                                          'miss/1/1.0625939237358462e-05/-/-',
                                          'miss/1/1.0625939237358462e-05/-/-',
                                          'miss/1/1.0625939237358462e-05/-/-'],
                                 'entries': 44,
                                 'stats': {'gets': 4, 'misses': 4},
                                 'retries': {},
                                 'fallback': {},
                                 'spans': '36:94beef38'},
 'torn:2xr': {'keys': ['hit/2/6.243999199579732e-05/-/first'],
              'entries': 107,
              'stats': {'gets': 1,
                        'hits': 1,
                        'retries': 1,
                        'torn_reads': 1,
                        'validation_failures': 1},
              'retries': {'validation-torn-or-stale': 1},
              'fallback': {},
              'spans': '104:6782cfea'},
 'torn:scar': {'keys': ['hit/2/5.334347243727568e-05/-/first'],
               'entries': 102,
               'stats': {'gets': 1,
                         'hits': 1,
                         'retries': 1,
                         'torn_reads': 3,
                         'validation_failures': 1},
               'retries': {'validation-torn-or-stale': 1},
               'fallback': {},
               'spans': '91:bfde5f38'},
 'torn:serial': {'keys': ['hit/2/8.111448316400443e-05/-/first'],
                 'entries': 67,
                 'stats': {'gets': 1,
                           'hits': 1,
                           'retries': 1,
                           'torn_reads': 2,
                           'validation_failures': 1},
                 'retries': {'validation-torn-or-stale': 1},
                 'fallback': {},
                 'spans': '80:e7da34b2'},
 'torn:multi-pony': {'keys': ['hit/1/2.1625364230467886e-05/-/first',
                              'hit/2/7.610613100173696e-05/-/first',
                              'hit/1/2.2863714296576234e-05/-/first',
                              'miss/1/1.1804533578910572e-05/-/-'],
                     'entries': 177,
                     'stats': {'gets': 4,
                               'hits': 3,
                               'misses': 1,
                               'retries': 1,
                               'torn_reads': 4,
                               'validation_failures': 1},
                     'retries': {'validation-torn-or-stale': 1},
                     'fallback': {'validation-torn-or-stale': 1},
                     'spans': '163:c2adf492'},
 'torn:multi-1rma': {'keys': ['hit/1/2.126209971307425e-05/-/first',
                              'hit/2/8.353402635616813e-05/-/first',
                              'hit/1/2.174204977918267e-05/-/first',
                              'miss/1/1.1406802499017155e-05/-/-'],
                     'entries': 202,
                     'stats': {'gets': 4,
                               'hits': 3,
                               'misses': 1,
                               'retries': 1,
                               'torn_reads': 2,
                               'validation_failures': 1},
                     'retries': {'validation-torn-or-stale': 1},
                     'fallback': {'validation-torn-or-stale': 1},
                     'spans': '176:13b527c7'},
 'primary:slow:2xr': {'keys': ['hit/1/0.00013858171977649148/-/first'],
                      'entries': 59,
                      'stats': {'gets': 1, 'hits': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '52:510dbc50'},
 'primary:slow:multi-pony': {'keys': ['hit/1/6.907043485169823e-05/-/first',
                                      'hit/1/0.00014059559296464405/-/first',
                                      'hit/1/6.907043485169823e-05/-/first',
                                      'miss/1/6.907043485169823e-05/-/-'],
                             'entries': 84,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '72:97d09798'},
 'primary:slow:multi-1rma': {'keys': ['hit/1/6.89402248516981e-05/-/first',
                                      'hit/1/0.00014081800015214383/-/first',
                                      'hit/1/6.89402248516981e-05/-/first',
                                      'miss/1/6.89402248516981e-05/-/-'],
                             'entries': 88,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '72:49260114'},
 'primary:slow-absent:2xr': {'keys': ['miss/1/7.2197773696597e-05/-/-'],
                             'entries': 46,
                             'stats': {'gets': 1, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '38:040c734c'},
 'primary:slow-absent:multi-pony': {'keys': ['hit/1/6.856310009047345e-05/-/first',
                                             'miss/1/6.856310009047345e-05/-/-',
                                             'hit/1/6.856310009047345e-05/-/first',
                                             'miss/1/6.856310009047345e-05/-/-'],
                                    'entries': 72,
                                    'stats': {'gets': 4,
                                              'hits': 2,
                                              'misses': 2},
                                    'retries': {},
                                    'fallback': {},
                                    'spans': '60:1c094416'},
 'primary:slow-absent:multi-1rma': {'keys': ['hit/1/6.843289009047333e-05/-/first',
                                             'miss/1/6.843289009047333e-05/-/-',
                                             'hit/1/6.843289009047333e-05/-/first',
                                             'miss/1/6.843289009047333e-05/-/-'],
                                    'entries': 74,
                                    'stats': {'gets': 4,
                                              'hits': 2,
                                              'misses': 2},
                                    'retries': {},
                                    'fallback': {},
                                    'spans': '60:c52691cd'},
 'primary:down:2xr': {'keys': ['hit/1/0.0002147008600153704/-/first'],
                      'entries': 58,
                      'stats': {'gets': 1, 'hits': 1},
                      'retries': {},
                      'fallback': {},
                      'spans': '46:3eaf2e7b'},
 'primary:down:multi-pony': {'keys': ['hit/1/0.0002049048734647129/-/first',
                                      'hit/1/0.00021496965093892816/-/first',
                                      'hit/1/0.0002049048734647129/-/first',
                                      'miss/1/0.0002049048734647129/-/-'],
                             'entries': 83,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '67:055aa7d0'},
 'primary:down:multi-1rma': {'keys': ['hit/1/0.00020443291346471288/-/first',
                                      'hit/1/0.00021485030812642806/-/first',
                                      'hit/1/0.00020443291346471288/-/first',
                                      'miss/1/0.00020443291346471288/-/-'],
                             'entries': 85,
                             'stats': {'gets': 4, 'hits': 3, 'misses': 1},
                             'retries': {},
                             'fallback': {},
                             'spans': '67:d1911db9'},
 'primary:down+slow-backup:2xr': {'keys': ['hit/1/0.0002147008600153704/-/first'],
                                  'entries': 57,
                                  'stats': {'gets': 1, 'hits': 1},
                                  'retries': {},
                                  'fallback': {},
                                  'spans': '46:11a60c19'},
 'primary:down+slow-backup:multi-pony': {'keys': ['hit/1/0.0002049048734647129/-/first',
                                                  'hit/1/0.00021496965093892816/-/first',
                                                  'hit/1/0.0002049048734647129/-/first',
                                                  'miss/1/0.0002049048734647129/-/-'],
                                         'entries': 82,
                                         'stats': {'gets': 4,
                                                   'hits': 3,
                                                   'misses': 1},
                                         'retries': {},
                                         'fallback': {},
                                         'spans': '67:d9c115c6'},
 'primary:down+slow-backup:multi-1rma': {'keys': ['hit/1/0.00020443291346471288/-/first',
                                                  'hit/1/0.00021485030812642806/-/first',
                                                  'hit/1/0.00020443291346471288/-/first',
                                                  'miss/1/0.00020443291346471288/-/-'],
                                         'entries': 85,
                                         'stats': {'gets': 4,
                                                   'hits': 3,
                                                   'misses': 1},
                                         'retries': {},
                                         'fallback': {},
                                         'spans': '67:57e5e39f'}}


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
