"""End-to-end telemetry: metrics registry + span-based tracing.

The observability layer the paper's whole evaluation rests on: a
:class:`MetricsRegistry` of labeled counters/gauges/histograms, and a
:class:`Span` tracer that decomposes every CliqueMap operation into
client → transport → fabric → backend intervals of simulated time.
See :mod:`repro.telemetry.metrics` and :mod:`repro.telemetry.trace`.
"""

from .export import (chrome_trace, prometheus_text, write_chrome_trace)
from .flight import (EVENT_KINDS, NULL_FLIGHT, FlightEvent, FlightRecorder)
from .metrics import (DEFAULT_HISTOGRAM_SAMPLE_CAP, Counter, Gauge,
                      Histogram, MetricFamily, MetricsRegistry, tally)
from .timeseries import Scraper, TimeSeries
from .trace import NULL_SPAN, Span, SpanRef, TraceContext, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry",
    "DEFAULT_HISTOGRAM_SAMPLE_CAP", "tally",
    "NULL_SPAN", "Span", "SpanRef", "TraceContext", "Tracer",
    "EVENT_KINDS", "NULL_FLIGHT", "FlightEvent", "FlightRecorder",
    "Scraper", "TimeSeries",
    "chrome_trace", "prometheus_text", "write_chrome_trace",
]
