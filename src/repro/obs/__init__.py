"""``repro.obs`` — the observability layer: tracing, metrics, profiling.

The subsystem rides the same ambient-attach pattern as the sanitizer
(:mod:`repro.verify`): an :class:`Observer` made ambient with
:func:`use_observer` puts its :class:`ObsTracer` on the engine's
``trace`` of every world built inside the block.  Detached, the
hot paths pay a single ``is None`` check per emission site — zero
allocation, zero I/O.

Three layers, usable independently:

* :class:`ObsTracer` — a structured event tracer that records
  engine/MPI/transport events into per-kind ring buffers
  (:class:`RingBuffer`), bounding memory regardless of run length.
* :class:`MetricsRegistry` — named :class:`Counter`\\ s, :class:`Gauge`\\ s
  and fixed-bucket :class:`Histogram`\\ s; the :class:`Observer` derives
  simulation metrics (phase breakdowns, poll hit/miss, rendezvous stalls,
  queue depths) from trace events, and :class:`~repro.core.executor.
  SweepExecutor` feeds wall-clock stage profiles into the same registry.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loads in
  ``about:tracing`` / Perfetto) and CSV timelines, stamped with
  :data:`TRACE_SCHEMA_VERSION`.

The observer never influences the simulation: every hook is a passive
read, which is what keeps observed runs bit-identical to bare runs (the
differential battery in ``tests/test_golden.py`` and
``tests/test_obs_properties.py`` enforces exactly that).
"""

from .attribution import (
    ALL_CAUSES,
    PointAttribution,
    attribute_events,
    attribute_window,
    format_attribution,
)
from .context import current_observer, use_observer
from .ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    format_history,
    history_aggregate,
    read_records,
)
from .live import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryChannel,
    validate_stream_event,
    validate_stream_line,
)
from .live_consumers import (
    ProgressRenderer,
    StreamWriter,
    SweepState,
    TelemetryHub,
)
from .export import (
    TRACE_SCHEMA_VERSION,
    chrome_trace,
    write_chrome_trace,
    write_csv_timeline,
    write_metrics,
)
from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_S,
    DEFAULT_SIM_TIME_BUCKETS_S,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .observer import Observer
from .ring import RingBuffer
from .spans import MessageSpans, Span, SpanForest, stitch
from .tracer import ObsEvent, ObsTracer

__all__ = [
    "ALL_CAUSES",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SIM_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "MessageSpans",
    "MetricsRegistry",
    "ObsEvent",
    "ObsTracer",
    "Observer",
    "PointAttribution",
    "ProgressRenderer",
    "RingBuffer",
    "RunLedger",
    "Span",
    "SpanForest",
    "StreamWriter",
    "SweepState",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TelemetryChannel",
    "TelemetryHub",
    "attribute_events",
    "attribute_window",
    "chrome_trace",
    "current_observer",
    "format_attribution",
    "format_history",
    "history_aggregate",
    "read_records",
    "stitch",
    "use_observer",
    "validate_stream_event",
    "validate_stream_line",
    "write_chrome_trace",
    "write_csv_timeline",
    "write_metrics",
]
