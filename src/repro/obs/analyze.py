"""Trace analytics: the consumer side of the ``repro-trace`` stream.

:mod:`repro.obs.trace` *produces* telemetry; this module turns a
recorded (or still-growing) trace back into answers.  Everything here is
a pure function of an event list — the same list
:func:`~repro.obs.trace.read_trace` returns, multi-pid and torn-tail
tolerant — so the analyses run identically on a file written by
``--trace``, a live campaign's half-written stream, or events held in
memory by a test.

The pieces, bottom-up:

* :func:`build_forest` — events → per-pid span trees
  (:class:`SpanNode`).  A span whose parent never closed (the torn tail
  of a killed run) is promoted to a root instead of being dropped, so a
  truncated trace still analyzes.
* :func:`span_stats` — the one per-name span aggregate: count,
  total/mean, min/max and *self* time (duration not covered by child
  spans).
* :func:`critical_path` — the longest chain of nested work from the
  dominant root span, stitched **across pids**: a worker's ``group``
  span is temporally enclosed by the parent's ``campaign`` span, so the
  walk descends dispatch → group → run_batch even though the processes
  never shared span ids.
* :func:`worker_timeline` — per-pid busy time, span and scenario
  counts, and utilization over the trace window.
* :func:`compile_cache_stats` / :func:`final_metrics` — the drained
  counter view (compile-cache efficiency, queue-wait moments).
* :func:`diff_stats` — per-phase deltas between two traces, the
  run-over-run comparison behind ``repro obs diff``.
* ``render_*`` — deterministic plain-text tables for the CLI
  (``repro obs summary/tree/critical-path/diff`` and the
  ``campaign status --metrics`` body, which lives here so the trace
  math is importable rather than buried in ``__main__``).

Like everything in :mod:`repro.obs`, this is read-only telemetry:
nothing here touches specs, digests or result stores.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import schema
from repro.obs.trace import read_trace, validate_trace_events

__all__ = [
    "SpanNode",
    "build_forest",
    "compile_cache_stats",
    "critical_path",
    "diff_stats",
    "final_metrics",
    "load_events",
    "manifests_of",
    "render_critical_path",
    "render_diff",
    "render_summary",
    "render_trace_metrics",
    "render_tree",
    "span_stats",
    "worker_timeline",
]

#: Cross-pid enclosure slack (seconds): worker tracers anchor their own
#: wall clocks, so a child process's span may appear to start a hair
#: before its logical parent.  Generous compared to clock anchor skew,
#: tiny compared to any span worth putting on a critical path.
_PID_EPS = 0.05


class SpanNode:
    """One span event with its resolved children — a forest vertex."""

    __slots__ = ("event", "children")

    def __init__(self, event: dict) -> None:
        self.event = event
        self.children: list[SpanNode] = []

    @property
    def name(self) -> str:
        return self.event["name"]

    @property
    def pid(self) -> int:
        return self.event["pid"]

    @property
    def ts(self) -> float:
        return self.event["ts"]

    @property
    def dur(self) -> float:
        return self.event["dur"]

    @property
    def end(self) -> float:
        return self.event["ts"] + self.event["dur"]

    @property
    def attrs(self) -> dict:
        return self.event.get("attrs", {})

    @property
    def counters(self) -> dict:
        return self.event.get("counters", {})

    def self_time(self) -> float:
        """Duration not covered by child spans (never below zero)."""
        return max(0.0, self.dur - sum(c.dur for c in self.children))

    def walk(self):
        """Yield ``(node, depth)`` pairs, depth-first, children by ts."""
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            for child in reversed(node.children):
                stack.append((child, depth + 1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpanNode({self.name!r}, pid={self.pid}, "
            f"dur={self.dur:.6f}, children={len(self.children)})"
        )


def load_events(path: str | Path, validate: bool = True) -> list[dict]:
    """Read a trace file, optionally schema-checking it first.

    The one loader every ``repro obs`` subcommand goes through:
    :func:`~repro.obs.trace.read_trace` already tolerates the torn tail
    of a live or killed run, and validation covers what survived —
    spans orphaned by a parent that never closed are allowed (they
    become forest roots downstream).
    """
    events = read_trace(path)
    if validate:
        validate_trace_events(events, allow_orphans=True)
    return events


def build_forest(events) -> list[SpanNode]:
    """Resolve span events into per-pid trees; returns the roots.

    Span ids are only unique per pid, so resolution is pid-local.  A
    span referencing a parent id that never appeared — its parent was
    still open when the process died — is promoted to a root: a
    truncated trace loses enclosing context, not the closed work.
    Roots are ordered by ``(ts, pid, id)`` and every child list by the
    same key, so the forest (and everything rendered from it) is
    deterministic for a given event list.
    """
    by_pid: dict[int, dict[int, SpanNode]] = {}
    for ev in events:
        if ev.get("ev") != "span":
            continue
        by_pid.setdefault(ev["pid"], {})[ev["id"]] = SpanNode(ev)
    key = lambda n: (n.ts, n.pid, n.event["id"])  # noqa: E731
    roots: list[SpanNode] = []
    for per in by_pid.values():
        for node in per.values():
            parent = per.get(node.event.get("parent"))
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in per.values():
            node.children.sort(key=key)
    roots.sort(key=key)
    return roots


def span_stats(events) -> dict[str, dict]:
    """Per-name span aggregates: count, total/mean/min/max, self time.

    The per-phase timing table the CLI, the benchmarks and the examples
    build on.  ``self_s`` is the per-name duration *not* covered by
    child spans, which is what separates "the campaign span is long"
    from "the campaign span does long work itself".
    """
    stats: dict[str, dict] = {}
    for root in build_forest(events):
        for node, _ in root.walk():
            row = stats.setdefault(
                node.name,
                {
                    "count": 0, "total_s": 0.0, "mean_s": 0.0,
                    "min_s": None, "max_s": None, "self_s": 0.0,
                },
            )
            row["count"] += 1
            row["total_s"] += node.dur
            row["self_s"] += node.self_time()
            if row["min_s"] is None or node.dur < row["min_s"]:
                row["min_s"] = node.dur
            if row["max_s"] is None or node.dur > row["max_s"]:
                row["max_s"] = node.dur
    for row in stats.values():
        row["mean_s"] = row["total_s"] / row["count"]
    return stats


def _foreign_roots(node: SpanNode, roots: list[SpanNode]) -> list[SpanNode]:
    """Other-pid roots temporally enclosed by ``node``'s interval.

    The cross-process stitch: a campaign's worker spans live in other
    pids with no structural parent link, but their intervals sit inside
    the dispatching span's interval (modulo clock-anchor slack).
    """
    return [
        r
        for r in roots
        if r.pid != node.pid
        and r.ts >= node.ts - _PID_EPS
        and r.end <= node.end + _PID_EPS
    ]


def critical_path(events) -> list[dict]:
    """The dominant chain of nested work through the trace.

    Starting from the longest root span, repeatedly descend into the
    longest candidate underneath the current node — its own children
    plus any other-pid roots enclosed by its interval (the campaign
    dispatch → worker group → kernel chain).  Each step reports its
    share of the walk's root, and the leaf's uncovered remainder is the
    self-time frontier: where the wall time actually went.

    Returns ``[{"name", "pid", "ts", "dur_s", "frac_of_root", "attrs"},
    …]`` from root to leaf; empty for a trace with no spans.
    """
    roots = build_forest(events)
    if not roots:
        return []
    node = max(roots, key=lambda n: (n.dur, -n.ts))
    total = node.dur
    root_pid = node.pid
    # Cross-pid hops only from the dispatching pid's spans: the clock
    # slack would otherwise let near-simultaneous sibling worker roots
    # "enclose" each other (worker→worker hops are never real, and the
    # mutual enclosure would even loop).  Consuming each root once
    # keeps the walk finite regardless.
    used = {id(node)}
    path = []
    while True:
        path.append(
            {
                "name": node.name,
                "pid": node.pid,
                "ts": node.ts,
                "dur_s": node.dur,
                "frac_of_root": node.dur / total if total > 0 else 1.0,
                "attrs": dict(node.attrs),
            }
        )
        foreign = (
            [r for r in _foreign_roots(node, roots) if id(r) not in used]
            if node.pid == root_pid
            else []
        )
        candidates = node.children + foreign
        if not candidates:
            return path
        node = max(candidates, key=lambda n: (n.dur, -n.ts))
        used.add(id(node))


def worker_timeline(events) -> list[dict]:
    """Per-pid activity rows over the trace's wall-clock window.

    ``busy_s`` sums each pid's *root* spans (nested spans would double
    count), ``scenarios`` sums the ``scenarios`` attribute of the
    *outermost* span carrying one on each chain (a ``simulate_batch``
    nested inside a ``group`` describes the same scenarios), and
    ``utilization`` is busy time over the whole trace window.  The row
    owning the ``campaign`` root is flagged as the parent — its "busy"
    time is dispatch, not simulation.
    """
    roots = build_forest(events)
    if not roots:
        return []
    t0 = min(r.ts for r in roots)
    t1 = max(r.end for r in roots)
    window = max(t1 - t0, 1e-12)
    rows: dict[int, dict] = {}

    def _count(node: SpanNode, row: dict, counted: bool) -> None:
        row["spans"] += 1
        n = node.attrs.get("scenarios")
        if (
            not counted
            and isinstance(n, int)
            and node.name in schema.SCENARIO_CARRYING_SPANS
        ):
            row["scenarios"] += n
            counted = True
        for child in node.children:
            _count(child, row, counted)

    for r in roots:
        row = rows.setdefault(
            r.pid,
            {
                "pid": r.pid, "spans": 0, "busy_s": 0.0,
                "scenarios": 0, "parent": False,
            },
        )
        row["busy_s"] += r.dur
        if r.name == schema.SPAN_CAMPAIGN:
            row["parent"] = True
        _count(r, row, False)
    for row in rows.values():
        row["utilization"] = row["busy_s"] / window
    return [rows[pid] for pid in sorted(rows)]


def manifests_of(events) -> list[dict]:
    """The manifest payloads of a trace, in stream order."""
    return [e["manifest"] for e in events if e.get("ev") == "manifest"]


def final_metrics(events) -> dict | None:
    """The last metrics snapshot of a trace (parent-merged), or None.

    Campaign parents merge every worker's drained registry before
    emitting the final snapshot, so the last ``metrics`` event is the
    cumulative view — summing across snapshots would double count.
    """
    snapshots = [e["metrics"] for e in events if e.get("ev") == "metrics"]
    return snapshots[-1] if snapshots else None


def compile_cache_stats(events) -> dict | None:
    """Compile-cache efficiency from the final metrics snapshot.

    ``{"hits", "misses", "lookups", "hit_rate"}``, or ``None`` when the
    trace carries no cache counters (an untraced-compile run).
    """
    snap = final_metrics(events)
    if snap is None:
        return None
    counters = snap.get("counters", {})
    hits = counters.get(schema.COUNTER_COMPILE_CACHE_HITS, 0)
    misses = counters.get(schema.COUNTER_COMPILE_CACHE_MISSES, 0)
    lookups = hits + misses
    if lookups == 0:
        return None
    return {
        "hits": hits,
        "misses": misses,
        "lookups": lookups,
        "hit_rate": hits / lookups,
    }


def diff_stats(a_events, b_events) -> dict[str, dict]:
    """Per-phase deltas between two traces (B relative to A).

    For every span name in either trace:
    ``{"a": {...} | None, "b": {...} | None, "delta_total_s",
    "delta_mean_s", "ratio_mean"}`` — ``ratio_mean`` is B's mean over
    A's (``None`` when the phase is missing on either side), so a
    regression reads directly as ``ratio_mean > 1``.
    """
    a_totals = span_stats(a_events)
    b_totals = span_stats(b_events)
    out: dict[str, dict] = {}
    for name in sorted(set(a_totals) | set(b_totals)):
        a = a_totals.get(name)
        b = b_totals.get(name)
        row = {
            "a": a,
            "b": b,
            "delta_total_s": (b["total_s"] if b else 0.0)
            - (a["total_s"] if a else 0.0),
            "delta_mean_s": (b["mean_s"] if b else 0.0)
            - (a["mean_s"] if a else 0.0),
            "ratio_mean": None,
        }
        if a and b and a["mean_s"] > 0:
            row["ratio_mean"] = b["mean_s"] / a["mean_s"]
        out[name] = row
    return out


# -- rendering ---------------------------------------------------------------


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}ms"


def render_trace_metrics(events, source: str | Path = "trace") -> str:
    """The ``campaign status --metrics`` table body.

    Byte-compatible with what ``__main__`` printed before this module
    existed: the per-phase timing table, then the final snapshot's
    counters and histograms.
    """
    lines: list[str] = []
    totals = span_stats(events)
    if totals:
        lines.append(f"per-phase timings from {source}:")
        lines.append(
            f"  {'span':<16} {'count':>6} {'total':>10} {'mean':>10}"
        )
        for name in sorted(totals):
            row = totals[name]
            lines.append(
                f"  {name:<16} {row['count']:>6} "
                f"{row['total_s'] * 1e3:>8.2f}ms "
                f"{row['mean_s'] * 1e3:>8.2f}ms"
            )
    final = final_metrics(events)
    if final is not None:
        if final.get("counters"):
            lines.append("counters:")
            for key in sorted(final["counters"]):
                lines.append(f"  {key:<28} {final['counters'][key]}")
        if final.get("histograms"):
            lines.append("histograms:")
            for key in sorted(final["histograms"]):
                h = final["histograms"][key]
                lines.append(
                    f"  {key:<28} n={h['count']} mean={h['mean']:.4g} "
                    f"min={h['min']:.4g} max={h['max']:.4g}"
                )
    return "\n".join(lines)


def render_summary(events, source: str | Path = "trace") -> str:
    """The ``repro obs summary`` report: one screen per trace.

    Manifest identity, the per-phase table with self time, worker
    utilization, compile-cache efficiency, then the counter/histogram
    snapshot — everything deterministic given the event list.
    """
    lines: list[str] = [f"trace: {source}"]
    for man in manifests_of(events):
        lines.append(
            f"  {man.get('kind', '?')}: {man.get('n_scenarios', 0)} "
            f"scenario(s)  digest={man.get('digest')}  "
            f"backend={man.get('backend')}"
        )
    stats = span_stats(events)
    if stats:
        lines.append("")
        lines.append(
            f"  {'span':<16} {'count':>6} {'total':>10} {'mean':>10} "
            f"{'self':>10} {'max':>10}"
        )
        for name in sorted(
            stats, key=lambda k: (-stats[k]["total_s"], k)
        ):
            row = stats[name]
            lines.append(
                f"  {name:<16} {row['count']:>6} "
                f"{_ms(row['total_s']):>10} {_ms(row['mean_s']):>10} "
                f"{_ms(row['self_s']):>10} {_ms(row['max_s']):>10}"
            )
    timeline = worker_timeline(events)
    if len(timeline) > 1:
        lines.append("")
        lines.append(
            f"  {'pid':<10} {'role':<8} {'spans':>6} {'scenarios':>10} "
            f"{'busy':>10} {'util':>6}"
        )
        for row in timeline:
            role = "parent" if row["parent"] else "worker"
            lines.append(
                f"  {row['pid']:<10} {role:<8} {row['spans']:>6} "
                f"{row['scenarios']:>10} {_ms(row['busy_s']):>10} "
                f"{row['utilization'] * 100:>5.0f}%"
            )
    cache = compile_cache_stats(events)
    if cache is not None:
        lines.append("")
        lines.append(
            f"  compile cache: {cache['hits']} hit(s) / "
            f"{cache['misses']} miss(es)  "
            f"({cache['hit_rate'] * 100:.0f}% hit rate)"
        )
    final = final_metrics(events)
    if final is not None and (
        final.get("counters") or final.get("histograms")
    ):
        lines.append("")
        for key in sorted(final.get("counters", {})):
            lines.append(f"  {key:<28} {final['counters'][key]}")
        for key in sorted(final.get("histograms", {})):
            h = final["histograms"][key]
            lines.append(
                f"  {key:<28} n={h['count']} mean={h['mean']:.4g} "
                f"min={h['min']:.4g} max={h['max']:.4g}"
            )
    return "\n".join(lines)


def render_tree(
    events, max_depth: int | None = None, max_children: int = 16
) -> str:
    """The span forest as an indented tree, durations alongside.

    ``max_depth`` truncates vertically, ``max_children`` horizontally
    (surplus siblings collapse into one ``… and K more`` line with
    their combined duration), so a million-scenario trace still renders
    a readable page.
    """
    lines: list[str] = []
    roots = build_forest(events)
    pids = sorted({r.pid for r in roots})

    def emit(node: SpanNode, depth: int) -> None:
        indent = "  " * (depth + 1)
        attrs = "".join(
            f"  {k}={v}"
            for k, v in sorted(node.attrs.items())
            if isinstance(v, (int, float, str))
        )
        lines.append(f"{indent}{node.name:<24} {_ms(node.dur):>12}{attrs}")
        if max_depth is not None and depth + 1 >= max_depth:
            return
        shown = node.children[:max_children]
        for child in shown:
            emit(child, depth + 1)
        hidden = node.children[max_children:]
        if hidden:
            rest = sum(c.dur for c in hidden)
            lines.append(
                f"{indent}  … and {len(hidden)} more "
                f"{_ms(rest):>12}"
            )

    for pid in pids:
        lines.append(f"pid {pid}")
        for root in roots:
            if root.pid == pid:
                emit(root, 0)
    return "\n".join(lines)


def render_critical_path(events) -> str:
    """The ``repro obs critical-path`` table: root-to-leaf chain."""
    path = critical_path(events)
    if not path:
        return "no spans in trace"
    lines = [
        f"  {'step':<24} {'pid':<10} {'dur':>12} {'% of root':>10}"
    ]
    for i, step in enumerate(path):
        arrow = "└─ " * min(i, 1) + ("  " * max(i - 1, 0))
        label = f"{arrow}{step['name']}"
        lines.append(
            f"  {label:<24} {step['pid']:<10} {_ms(step['dur_s']):>12} "
            f"{step['frac_of_root'] * 100:>9.1f}%"
        )
    leaf = path[-1]
    covered = leaf["dur_s"] / path[0]["dur_s"] if path[0]["dur_s"] else 1.0
    lines.append(
        f"  leaf {leaf['name']!r} carries {covered * 100:.1f}% of the "
        "root interval"
    )
    return "\n".join(lines)


def render_diff(a_events, b_events, a_name="A", b_name="B") -> str:
    """The ``repro obs diff`` table: per-phase B-vs-A deltas."""
    rows = diff_stats(a_events, b_events)
    if not rows:
        return "no spans in either trace"
    lines = [
        f"  {'span':<16} {'mean ' + str(a_name):>12} "
        f"{'mean ' + str(b_name):>12} {'Δmean':>12} {'ratio':>7}"
    ]
    for name, row in rows.items():
        a_mean = _ms(row["a"]["mean_s"]) if row["a"] else "-"
        b_mean = _ms(row["b"]["mean_s"]) if row["b"] else "-"
        ratio = (
            f"{row['ratio_mean']:.2f}x"
            if row["ratio_mean"] is not None
            else "-"
        )
        sign = "+" if row["delta_mean_s"] >= 0 else "-"
        lines.append(
            f"  {name:<16} {a_mean:>12} {b_mean:>12} "
            f"{sign + _ms(abs(row['delta_mean_s'])):>12} {ratio:>7}"
        )
    return "\n".join(lines)
