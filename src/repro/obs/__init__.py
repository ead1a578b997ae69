"""Unified observability layer.

One subsystem spanning every layer of the reproduction:

* **trace sinks** (:mod:`repro.obs.sinks`) — where
  :class:`~repro.kernel.trace.Trace` records go: in-memory list
  (default), streaming JSONL file, tee;
* **metrics registry** (:mod:`repro.obs.metrics`) — named
  counters/gauges/histograms instrumented throughout the RTOS services
  and the channel library; a histogram is a :class:`LatencyDigest`;
* **exporters** (:mod:`repro.obs.ctf` plus the pre-existing VCD/Gantt
  renderers) — Chrome Trace Format / Perfetto JSON over the same trace
  query layer, with causal wake-edge flow arrows and per-task latency
  counter tracks;
* **causal spans** (:mod:`repro.obs.spans`) — streaming O(1)-memory
  reconstruction of task lifecycle and blocking spans with causal
  wake edges, over any sink/stream;
* **analyzers** (:mod:`repro.obs.analyzers`) — deterministic latency
  digests (p50/p95/p99), priority-inversion detection,
  worst-case witnesses, miss census; assembled into run health
  reports by :mod:`repro.obs.report`.

``python -m repro.obs`` is the command-line entry point (``export``,
``stats``, ``profile``, ``report`` subcommands); ``profile`` answers
"where did the host time go?" with the standard-library
:mod:`cProfile`, one row per function.
"""

from repro.obs.analyzers import (
    InversionDetector,
    LatencyAnalyzer,
    LatencyDigest,
    MissSummary,
    WorstCaseTracker,
)
from repro.obs.ctf import to_ctf, validate_ctf, write_ctf
from repro.obs.instruments import (
    HandshakeObs,
    QueueObs,
    RTOSObs,
    SemaphoreObs,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.report import build_report, format_report
from repro.obs.spans import (
    BlockSpan,
    JobSpan,
    SpanAnalyzer,
    SpanBuilder,
    WakeEdge,
    build_spans,
)
from repro.obs.sinks import (
    JsonlSink,
    ListSink,
    TeeSink,
    TraceSink,
    iter_jsonl,
    load_jsonl,
)

__all__ = [
    "BlockSpan",
    "Counter",
    "Gauge",
    "HandshakeObs",
    "InversionDetector",
    "JobSpan",
    "JsonlSink",
    "LatencyAnalyzer",
    "LatencyDigest",
    "ListSink",
    "MetricsRegistry",
    "MissSummary",
    "QueueObs",
    "RTOSObs",
    "SemaphoreObs",
    "SpanAnalyzer",
    "SpanBuilder",
    "TeeSink",
    "TraceSink",
    "WakeEdge",
    "WorstCaseTracker",
    "build_report",
    "build_spans",
    "format_report",
    "iter_jsonl",
    "load_jsonl",
    "to_ctf",
    "validate_ctf",
    "write_ctf",
]
