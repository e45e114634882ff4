"""Structured observability: spans, metrics, manifests, logging.

The zero-dependency, **off-by-default** instrumentation substrate of the
simulation stack:

* :mod:`repro.obs.trace` — a :class:`Tracer` of nested spans emitting
  the ``repro-trace`` JSONL event stream (Chrome-tracing convertible),
  plus the process-global activation switch every instrumented call
  site consults;
* :mod:`repro.obs.metrics` — the process-wide counter/gauge/histogram
  registry, with the snapshot/merge plumbing campaign workers use to
  ship series to the parent;
* :mod:`repro.obs.manifest` — :class:`RunManifest` stamps of every
  traced invocation (spec digests, backend, versions, timings);
* :mod:`repro.obs.log` — the ``repro`` logger hierarchy behind the CLI;
* :mod:`repro.obs.analyze` — the consumer tier: span forests, per-phase
  stats, cross-pid critical paths, worker timelines and trace diffs
  behind ``python -m repro obs``;
* :mod:`repro.obs.baseline` — perf-baseline normalization and the
  ``repro obs bench-compare`` regression gate over ``BENCH_*.json``.

Telemetry is an execution concern, exactly like the kernel backend:
enabling it never changes a spec digest, a report's serialized form, or
a campaign store byte.  Three-line usage::

    from repro import obs

    with obs.tracing("run-trace.jsonl"):
        simulate(spec)          # spans + manifest land in the file

From the CLI the same switch is ``--trace FILE`` (or the ``REPRO_TRACE``
environment variable) on ``python -m repro simulate`` and
``python -m repro campaign run``.
"""

from repro.obs import analyze, baseline
from repro.obs.log import LOG_ENV, configure, get_logger
from repro.obs.manifest import RunManifest, versions
from repro.obs.metrics import Metrics, metrics
from repro.obs.trace import (
    NULL_SPAN,
    TRACE_ENV,
    TRACE_FORMAT,
    TRACE_VERSION,
    Span,
    Tracer,
    active,
    chrome_trace,
    current_span,
    enabled,
    read_trace,
    reset,
    span,
    start,
    stop,
    tracing,
    validate_trace_events,
    validate_trace_file,
    write_trace,
)

__all__ = [
    "LOG_ENV",
    "NULL_SPAN",
    "TRACE_ENV",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Metrics",
    "RunManifest",
    "Span",
    "Tracer",
    "active",
    "analyze",
    "baseline",
    "chrome_trace",
    "configure",
    "current_span",
    "enabled",
    "get_logger",
    "metrics",
    "read_trace",
    "reset",
    "span",
    "start",
    "stop",
    "tracing",
    "validate_trace_events",
    "validate_trace_file",
    "versions",
    "write_trace",
]
