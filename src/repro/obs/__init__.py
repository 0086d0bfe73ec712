"""Unified observability subsystem: metrics registry, tracing, exporters.

See README "Observability" for the instrument table and wire spec, and
CONTRIBUTING.md for the instrumentation policy (register instruments on a
:class:`MetricsRegistry`; never print from library code).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_RESERVOIR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.tracing import (
    SlowQueryLog,
    Span,
    Trace,
    graft,
    new_trace_id,
    span_names,
)
from repro.obs.export import PeriodicEmitter, format_snapshot_line, render_snapshot

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "DEFAULT_BUCKETS",
    "DEFAULT_RESERVOIR",
    "Span",
    "Trace",
    "SlowQueryLog",
    "graft",
    "new_trace_id",
    "span_names",
    "PeriodicEmitter",
    "format_snapshot_line",
    "render_snapshot",
]
