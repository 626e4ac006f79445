"""Always-on observability for dataflow executions.

The interactive debugger (the paper's contribution) requires stopping
the machine to learn anything; this package adds the complementary
*continuous* channel — hierarchical spans, per-actor/per-link metrics
and a Perfetto-loadable trace export — a view of the session's event
history, built when it is read, so a run pays nothing for it per event
and event-bus elision keeps the cost when disarmed ~zero.
Any recorded run can also be profiled after the fact:
:func:`derive_telemetry` rebuilds identical telemetry from a
ReplayJournal.

The cross-run plane on top (PR 9):

- :mod:`.aggregate` stitches per-shard journals into one run-level
  view with cross-shard causal edges and a timing-invariant canonical
  projection proved byte-identical to single-kernel telemetry;
- :mod:`.prof` attributes flushed interpreter cycles to an
  (actor, function, tier) call tree via ``hook.profile_sink``, with
  collapsed-stack/flamegraph export and a replay-side deriver;
- :mod:`.openmetrics` exposes metric snapshots as scrape-ready
  OpenMetrics text (with an in-tree promtool-style validator);
- :mod:`.flight` keeps an always-on bounded flight recorder (a ring
  of the spans the telemetry builder closes) that auto-dumps a
  post-mortem bundle on violation/error/deadlock stops.
"""

from .aggregate import (
    AggregateTelemetry,
    CrossShardEdge,
    aggregate_journal,
    aggregate_sharded,
)
from .builder import TelemetryBuilder, INIT_TRACK
from .derive import DerivedTelemetry, derive_telemetry
from .export import (
    to_chrome_trace,
    to_chrome_trace_multi,
    validate_chrome_trace,
    write_artifact,
)
from .flight import FlightRecorder
from .metrics import ActorMetrics, Histogram, LinkMetrics, MetricsRegistry
from .openmetrics import parse_openmetrics, to_openmetrics
from .prof import DerivedProfile, Profile, Profiler, derive_profile, flame_svg
from .spans import Span, SpanSink, SpanSnapshot
from .telemetry import Telemetry

__all__ = [
    "ActorMetrics",
    "AggregateTelemetry",
    "CrossShardEdge",
    "DerivedProfile",
    "DerivedTelemetry",
    "FlightRecorder",
    "Histogram",
    "INIT_TRACK",
    "LinkMetrics",
    "MetricsRegistry",
    "Profile",
    "Profiler",
    "Span",
    "SpanSink",
    "SpanSnapshot",
    "Telemetry",
    "TelemetryBuilder",
    "aggregate_journal",
    "aggregate_sharded",
    "derive_profile",
    "derive_telemetry",
    "flame_svg",
    "parse_openmetrics",
    "to_chrome_trace",
    "to_chrome_trace_multi",
    "to_openmetrics",
    "validate_chrome_trace",
    "write_artifact",
]
