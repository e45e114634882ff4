"""Nested-span tracing: the ``repro-trace`` JSONL event stream.

A :class:`Tracer` records *spans* — named, attributed, timed regions of
work (``compile``, ``warm_jit``, ``run_batch``, ``store``, …) that nest:
a span opened while another is open becomes its child.  Each span closes
into one JSON event carrying its wall-clock start, duration, attributes
and counters; a trace file is a ``repro-trace`` header line followed by
one event per line, in close order (children before parents) —
append-only and crash-tolerant for the same reason the campaign store
is.

Tracing is **off by default and near-free when off**: the module-level
:func:`span` helper returns a shared no-op context manager unless a
tracer has been installed with :func:`start` / :func:`tracing`, so
instrumented call sites cost one function call and an ``if`` when
disabled (asserted by ``benchmarks/bench_obs.py``).  Telemetry is an
execution concern like the kernel backend: nothing here ever enters a
scenario spec, its digest, or a result store.

Timestamps are hybrid: each tracer anchors ``time.time()`` once and
advances it with ``time.perf_counter`` deltas, so the ``ts`` fields are
wall-clock-meaningful *and* monotonic within a process — child spans
are exactly enclosed by their parents, a property
:func:`validate_trace_events` checks and the test suite pins.

Campaign workers hold in-memory tracers and :meth:`Tracer.drain` their
events into the pool's existing result path; the parent
:meth:`Tracer.ingest`-s them (events carry their origin ``pid``) into
one stream.  :func:`chrome_trace` converts any event list to the Chrome
``chrome://tracing`` / Perfetto JSON shape.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.errors import ReproError
from repro.io import JsonlLog, header_line

__all__ = [
    "Span",
    "Tracer",
    "active",
    "chrome_trace",
    "current_span",
    "enabled",
    "read_trace",
    "reset",
    "span",
    "start",
    "stop",
    "tracing",
    "validate_trace_events",
    "validate_trace_file",
    "write_trace",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Environment variable naming a trace output file (consulted by the CLI).
TRACE_ENV = "REPRO_TRACE"


class Span:
    """One open (or closed) traced region.

    Usable only through ``with tracer.span(...) as sp`` /
    ``with obs.span(...) as sp``; inside the block, :meth:`add`
    accumulates counters and :meth:`set` attaches attributes.  After the
    block, :attr:`dur` holds the duration in seconds.
    """

    __slots__ = ("name", "id", "parent", "ts", "dur", "attrs", "counters")

    def __init__(
        self, name: str, span_id: int, parent: int | None, ts: float
    ) -> None:
        self.name = name
        self.id = span_id
        self.parent = parent
        self.ts = ts
        self.dur: float | None = None
        self.attrs: dict = {}
        self.counters: dict = {}

    def set(self, **attrs) -> "Span":
        """Attach attributes (JSON scalars) to this span."""
        self.attrs.update(attrs)
        return self

    def add(self, counter: str, value: int | float = 1) -> "Span":
        """Accumulate a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + value
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.dur is None else f"dur={self.dur:.6f}"
        return f"Span({self.name!r}, id={self.id}, {state})"


class _NullSpan:
    """The shared do-nothing span behind disabled instrumentation.

    One module-level instance serves every ``with obs.span(...)`` while
    tracing is off; it carries no state, so re-entrancy is free.
    """

    __slots__ = ()
    name = None
    dur = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def add(self, counter: str, value: int | float = 1) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager pairing one :class:`Span` with its tracer."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        # ts and dur derive from one perf_counter reading, so a child's
        # [ts, ts + dur] interval nests *exactly* inside its parent's —
        # the enclosure property validate_trace_events checks.
        self._t0 = time.perf_counter()
        tr = self._tracer
        self._span.ts = tr._t0_wall + (self._t0 - tr._t0_perf)
        return self._span

    def __exit__(self, *exc) -> bool:
        dur = time.perf_counter() - self._t0
        self._tracer._close(self._span, dur)
        return False


class Tracer:
    """Collects (or streams) the span events of one process.

    Parameters
    ----------
    sink:
        ``None`` (default) collects events in memory — the campaign
        workers' mode, paired with :meth:`drain`.  A path streams every
        event straight to a ``repro-trace`` JSONL file (header written
        eagerly), so a killed run keeps the spans that closed.
    """

    def __init__(self, sink: str | Path | None = None) -> None:
        self.pid = os.getpid()
        self._events: list[dict] = []
        self._stack: list[Span] = []
        self._next_id = 1
        # Monotonic wall clock: one time.time() anchor advanced by
        # perf_counter deltas, so sibling/child timestamps never invert
        # across system clock adjustments.
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        self._fh = None
        self.path: Path | None = None
        if sink is not None:
            self.path = Path(sink)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # The sink outlives this frame: it stays open for the whole
            # tracer lifetime and is closed by close()/tracing().
            self._fh = open(self.path, "w", encoding="utf-8")  # noqa: SIM115
            self._fh.write(header_line(TRACE_FORMAT, TRACE_VERSION) + "\n")
            self._fh.flush()

    # -- span lifecycle ----------------------------------------------------

    def now(self) -> float:
        """The tracer's monotonic wall-clock timestamp."""
        return self._t0_wall + (time.perf_counter() - self._t0_perf)

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a span as a context manager; nests under the current one."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(name, self._next_id, parent, self.now())
        self._next_id += 1
        if attrs:
            sp.attrs.update(attrs)
        self._stack.append(sp)
        return _SpanContext(self, sp)

    def _close(self, sp: Span, dur: float) -> None:
        if not self._stack or self._stack[-1] is not sp:
            raise ReproError(
                f"span {sp.name!r} closed out of order; spans must nest"
            )
        self._stack.pop()
        sp.dur = dur
        self.emit(
            {
                "ev": "span",
                "name": sp.name,
                "id": sp.id,
                "parent": sp.parent,
                "pid": self.pid,
                "ts": sp.ts,
                "dur": dur,
                "attrs": sp.attrs,
                "counters": sp.counters,
            }
        )

    def current(self) -> Span | None:
        """The innermost open span, ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    # -- event stream ------------------------------------------------------

    def emit(self, event: dict) -> None:
        """Append one event to the stream (write-through when sinked)."""
        if self._fh is not None:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")
            self._fh.flush()
        else:
            self._events.append(event)

    def emit_manifest(self, manifest) -> None:
        """Stamp a :class:`~repro.obs.manifest.RunManifest` event."""
        doc = manifest.to_dict() if hasattr(manifest, "to_dict") else dict(
            manifest
        )
        self.emit(
            {
                "ev": "manifest",
                "pid": self.pid,
                "ts": self.now(),
                "manifest": doc,
            }
        )

    def emit_metrics(self, snapshot: dict) -> None:
        """Stamp a metrics-registry snapshot event."""
        self.emit(
            {
                "ev": "metrics",
                "pid": self.pid,
                "ts": self.now(),
                "metrics": snapshot,
            }
        )

    def ingest(self, events) -> None:
        """Merge events produced elsewhere (campaign workers) as-is.

        Events keep their origin ``pid``/ids — per-process span ids stay
        unique within their pid, which is all the schema requires.
        """
        for event in events:
            self.emit(event)

    @property
    def events(self) -> list[dict]:
        """The collected events (in-memory tracers only)."""
        return self._events

    def drain(self) -> list[dict]:
        """Pop and return every collected event (in-memory tracers).

        The campaign workers' per-task handoff: events accumulate
        between tasks (including initializer-time ``warm_jit`` spans)
        and each task ships everything collected so far back through
        the pool's result path, keeping worker memory bounded.
        """
        events, self._events = self._events, []
        return events

    def close(self) -> None:
        """Close the sink file (no-op for in-memory tracers)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = str(self.path) if self.path else f"{len(self._events)} events"
        return f"Tracer(pid={self.pid}, {where})"


# -- the process-global active tracer ---------------------------------------

_ACTIVE: Tracer | None = None


def active() -> Tracer | None:
    """The installed tracer, ``None`` while tracing is off."""
    return _ACTIVE


def enabled() -> bool:
    """True when a tracer is installed (telemetry call sites may spend)."""
    return _ACTIVE is not None


def span(name: str, **attrs):
    """A span on the active tracer — or the free no-op when tracing is off.

    The one helper every instrumented call site uses::

        with obs.span("compile", network=digest) as sp:
            ...
            sp.add("cache_misses")
    """
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, **attrs)


def current_span() -> Span | None:
    """The active tracer's innermost open span (``None`` when off/idle)."""
    return None if _ACTIVE is None else _ACTIVE.current()


def start(sink: Tracer | str | Path | None = None) -> Tracer:
    """Install a tracer process-wide (a path means stream-to-file)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ReproError(
            "a tracer is already active; stop() it before starting another"
        )
    tracer = sink if isinstance(sink, Tracer) else Tracer(sink)
    _ACTIVE = tracer
    return tracer


def stop() -> Tracer | None:
    """Uninstall (and close) the active tracer; returns it, or ``None``."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    if tracer is not None:
        tracer.close()
    return tracer


def reset() -> None:
    """Forget an inherited tracer without closing its sink.

    Fork-safety: a campaign worker forked while the parent traced to a
    file inherits the parent's tracer *and its open file descriptor*;
    writing (or closing) it from the child would corrupt the parent's
    stream.  The pool initializer calls this before installing the
    worker's own in-memory tracer.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(sink: Tracer | str | Path | None = None):
    """Scope a tracer installation: ``with tracing("run.jsonl") as tr:``."""
    tracer = start(sink)
    try:
        yield tracer
    finally:
        stop()


# -- trace file io, validation, conversion ----------------------------------


def _log(path: str | Path) -> JsonlLog:
    return JsonlLog(path, TRACE_FORMAT, (TRACE_VERSION,))


def write_trace(path: str | Path, events) -> None:
    """Write an event list as a ``repro-trace`` JSONL file."""
    _log(path).rewrite(json.dumps(e, sort_keys=True) for e in events)


def read_trace(path: str | Path) -> list[dict]:
    """Read a ``repro-trace`` JSONL file back to its event list.

    Validates the header and skips a final line without its newline
    (the torn tail of a live or killed run), mirroring the campaign
    store's crash semantics; a complete line that is not JSON raises.
    """
    return list(_log(path).records(what="trace event", required=True))


_EVENT_KINDS = ("span", "manifest", "metrics")


def validate_trace_events(events, allow_orphans: bool = False) -> None:
    """Schema-check an event list; raises :class:`ReproError` on violation.

    Checks per event: the ``ev`` kind, required keys and their types.
    Checks across span events (per ``pid``): unique ids, resolvable
    parent references, and exact parent-interval enclosure of children —
    the nesting property the tracer's monotonic clock guarantees.

    ``allow_orphans=True`` relaxes the resolvable-parent requirement for
    the torn tail of a killed run: a span whose parent was still open
    when the process died closed fine itself, but its parent event never
    made it to the file.  Enclosure is still checked wherever the parent
    *is* present.
    """
    spans_by_pid: dict[int, dict[int, dict]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or ev.get("ev") not in _EVENT_KINDS:
            raise ReproError(
                f"event {i}: not a trace event (ev={ev.get('ev')!r})"
                if isinstance(ev, dict)
                else f"event {i}: events must be JSON objects"
            )
        if not isinstance(ev.get("pid"), int):
            raise ReproError(f"event {i}: missing integer 'pid'")
        if not isinstance(ev.get("ts"), (int, float)):
            raise ReproError(f"event {i}: missing numeric 'ts'")
        kind = ev["ev"]
        if kind == "manifest":
            if not isinstance(ev.get("manifest"), dict):
                raise ReproError(f"event {i}: manifest payload missing")
            continue
        if kind == "metrics":
            if not isinstance(ev.get("metrics"), dict):
                raise ReproError(f"event {i}: metrics payload missing")
            continue
        for key, typ in (
            ("name", str), ("id", int), ("dur", (int, float)),
            ("attrs", dict), ("counters", dict),
        ):
            if not isinstance(ev.get(key), typ):
                raise ReproError(f"event {i}: span is missing {key!r}")
        if ev["dur"] < 0:
            raise ReproError(f"event {i}: negative span duration")
        per = spans_by_pid.setdefault(ev["pid"], {})
        if ev["id"] in per:
            raise ReproError(
                f"event {i}: duplicate span id {ev['id']} in pid {ev['pid']}"
            )
        per[ev["id"]] = ev
    eps = 1e-6
    for pid, per in spans_by_pid.items():
        for ev in per.values():
            parent = ev.get("parent")
            if parent is None:
                continue
            if parent not in per:
                if allow_orphans:
                    continue
                raise ReproError(
                    f"span {ev['name']!r} (pid {pid}) references unknown "
                    f"parent id {parent}"
                )
            pa = per[parent]
            if (
                ev["ts"] < pa["ts"] - eps
                or ev["ts"] + ev["dur"] > pa["ts"] + pa["dur"] + eps
            ):
                raise ReproError(
                    f"span {ev['name']!r} (pid {pid}) escapes its parent "
                    f"{pa['name']!r} interval"
                )


def validate_trace_file(path: str | Path) -> list[dict]:
    """Read and schema-check a trace file; returns its events."""
    events = read_trace(path)
    validate_trace_events(events)
    return events


def chrome_trace(events) -> dict:
    """Convert trace events to the Chrome ``chrome://tracing`` JSON shape.

    Span events become complete (``"ph": "X"``) slices; manifest and
    metrics events become instant (``"ph": "i"``) marks.  Load the
    result (saved as JSON) in ``chrome://tracing`` or Perfetto.
    """
    out = []
    for ev in events:
        if ev.get("ev") == "span":
            out.append(
                {
                    "name": ev["name"],
                    "ph": "X",
                    "ts": ev["ts"] * 1e6,
                    "dur": ev["dur"] * 1e6,
                    "pid": ev["pid"],
                    "tid": ev["pid"],
                    "args": {**ev["attrs"], **ev["counters"]},
                }
            )
        else:
            out.append(
                {
                    "name": ev.get("ev"),
                    "ph": "i",
                    "s": "p",
                    "ts": ev["ts"] * 1e6,
                    "pid": ev["pid"],
                    "tid": ev["pid"],
                    "args": ev.get("manifest") or ev.get("metrics") or {},
                }
            )
    return {"traceEvents": out, "displayTimeUnit": "ms"}
