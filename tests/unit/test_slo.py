"""Unit tests for repro.observe.slo: burn-rate math and alert logic."""

import pytest

from repro.observe import (BurnWindow, MetricTerm, SloEngine, SloObjective,
                           default_objectives)
from repro.telemetry import MetricsRegistry, Scraper

OPS = "cliquemap_probe_ops_total"


def _objective(target=0.9, factor=2.0, long_window=4.0, short_window=1.0):
    return SloObjective(
        name="availability", cell="cell", target=target,
        good=MetricTerm(OPS, {"cell": "cell", "result": "ok"}),
        total=MetricTerm(OPS, {"cell": "cell"}),
        windows=[BurnWindow(long_window, short_window, factor)])


class Feed:
    """Drives a registry + scraper with explicit ok/error deltas."""

    def __init__(self, **scraper_kwargs):
        self.registry = MetricsRegistry()
        family = self.registry.counter(OPS)
        self.ok = family.labels(cell="cell", result="ok")
        self.error = family.labels(cell="cell", result="error")
        self.scraper = Scraper(self.registry, **scraper_kwargs)
        self.t = 0.0

    def step(self, ok=0, error=0, dt=1.0):
        if ok:
            self.ok.inc(ok)
        if error:
            self.error.inc(error)
        self.t += dt
        self.scraper.scrape(self.t)
        return self.t


def test_burn_rate_math():
    feed = Feed()
    obj = _objective(target=0.9)     # 10% error budget
    feed.step(ok=8, error=2)         # 20% errors -> burn 2.0
    burn, events = obj.burn_rate(feed.scraper, window=4.0, at=feed.t)
    assert burn == pytest.approx(2.0)
    assert events == 10.0
    # No events in window -> burn 0, not a division error.
    burn, events = obj.burn_rate(feed.scraper, window=0.001, at=feed.t + 50)
    assert (burn, events) == (0.0, 0.0)


def test_fires_only_when_both_windows_burn():
    # Long window 4s, short 1s. An old burst that has left the short
    # window must not fire even though the long window still burns.
    feed = Feed()
    engine = SloEngine(feed.scraper, [_objective()])
    feed.step(ok=5, error=5)         # t=1: hot burst
    feed.step(ok=10)                 # t=2: recovered
    feed.step(ok=10)                 # t=3
    engine.evaluate(feed.t)
    assert engine.fired() == []      # long burns, short does not

    # A burst inside both windows fires.
    feed.step(error=10)              # t=4: actively failing
    engine.evaluate(feed.t)
    (event,) = engine.fired()
    assert (event.objective, event.cell) == ("availability", "cell")
    assert event.at == feed.t
    assert event.burn_short >= 2.0 and event.burn_long >= 2.0


def test_min_events_guard_suppresses_noise():
    feed = Feed()
    engine = SloEngine(feed.scraper, [_objective()])
    feed.step(error=3)               # 100% errors but only 3 events
    engine.evaluate(feed.t)
    assert engine.fired() == []
    feed.step(error=7)               # now 10 events in the long window
    engine.evaluate(feed.t)
    assert len(engine.fired()) == 1


def test_fire_resolve_dedupe_transitions():
    feed = Feed()
    engine = SloEngine(feed.scraper, [_objective()], registry=feed.registry)
    engine.attach()                  # evaluates on every scrape from here
    feed.step(error=10)              # fire
    feed.step(error=10)              # still firing: no duplicate event
    assert len(engine.fired()) == 1 and len(engine.active) == 1
    for _ in range(6):               # recover until both windows clear
        feed.step(ok=10)
    kinds = [e.kind for e in engine.events]
    assert kinds == ["fire", "resolve"]
    assert engine.active == {}
    feed.step(error=30)              # a second incident fires again
    assert len(engine.fired()) == 2
    assert feed.registry.value("cliquemap_slo_alerts_total", cell="cell",
                               objective="availability",
                               severity="page") == 2.0


def test_alert_event_to_dict_and_engine_to_dict():
    feed = Feed()
    engine = SloEngine(feed.scraper, [_objective()]).attach()
    feed.step(error=10)
    doc = engine.to_dict()
    assert doc["evaluations"] == 1
    assert doc["active"] == ["availability/cell/page"]
    (event,) = doc["events"]
    assert event["kind"] == "fire"
    assert event["at"] == 1.0
    assert event["long_window"] == 4.0 and event["short_window"] == 1.0
    assert event["factor"] == 2.0


def test_validation_errors():
    with pytest.raises(ValueError):
        SloEngine(Feed().scraper, [_objective(target=1.0)])
    with pytest.raises(ValueError):
        SloEngine(Feed().scraper, [_objective(target=0.0)])
    with pytest.raises(ValueError):
        BurnWindow(long_window=1.0, short_window=2.0, factor=1.0).validate()
    with pytest.raises(ValueError):
        BurnWindow(long_window=2.0, short_window=1.0, factor=0.0).validate()
    bare = _objective()
    bare.windows = []
    with pytest.raises(ValueError):
        bare.validate()


def test_default_objectives_shape():
    objectives = default_objectives("cell-a")
    assert [o.name for o in objectives] == ["availability", "latency"]
    for o in objectives:
        o.validate()
        assert o.cell == "cell-a"
        assert o.total.labels == {"cell": "cell-a"}
    availability, latency = objectives
    assert availability.good.labels["result"] == "ok"
    assert latency.good.labels["class"] == "fast"
    assert latency.good.name == "cliquemap_probe_latency_class_total"
