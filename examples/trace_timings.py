#!/usr/bin/env python
"""Read a ``repro-trace`` file into a per-phase timing table.

Run::

    python examples/trace_timings.py [trace.jsonl]

Given a trace file (written by ``--trace`` / ``REPRO_TRACE`` on
``python -m repro simulate`` or ``campaign run``), this prints where the
wall time went — per span name: how often it ran, the total and mean
seconds — plus the run's manifest stamp and final metrics snapshot.
Without an argument it *produces* its own trace first: a small traced
campaign over two worker processes, so the table shows parent and
worker phases side by side.

The same span data can be handed to ``chrome://tracing`` / Perfetto via
:func:`repro.obs.chrome_trace`; the last section writes that file and
then hands the trace to the analytics tier (:mod:`repro.obs.analyze`) —
the same views ``python -m repro obs summary`` / ``critical-path``
print — so the example ends where real trace digging starts.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro import CampaignSpec, obs, run_campaign


def make_demo_trace(path: Path) -> None:
    """A tiny traced sweep: 8 scenarios over 2 pool workers."""
    spec = CampaignSpec(
        topologies=("omega", "baseline"),
        stages=(4,),
        traffic=("uniform",),
        rates=(0.7,),
        faults=(0, 2),
        seeds=(0, 1),
        cycles=100,
    )
    with tempfile.TemporaryDirectory() as tmp:
        with obs.tracing(path):
            run_campaign(spec, Path(tmp) / "store.jsonl", workers=2)


def timing_table(events: list[dict]) -> str:
    """Format :func:`repro.obs.analyze.span_stats` as an aligned table."""
    totals = obs.analyze.span_stats(events)
    width = max(len(name) for name in totals) if totals else 4
    lines = [
        f"{'span':<{width}}  {'count':>5}  {'total':>9}  {'mean':>9}"
    ]
    for name in sorted(totals, key=lambda k: -totals[k]["total_s"]):
        row = totals[name]
        lines.append(
            f"{name:<{width}}  {row['count']:>5}  "
            f"{row['total_s'] * 1e3:>7.2f}ms  {row['mean_s'] * 1e3:>7.2f}ms"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv:
        path = Path(argv[0])
    else:
        path = Path("demo-trace.jsonl")
        print(f"no trace given; producing one -> {path}\n")
        make_demo_trace(path)

    events = obs.validate_trace_file(path)  # header + schema check

    print(f"== per-phase timings ({path}) ==")
    print(timing_table(events))

    pids = sorted({e["pid"] for e in events if e.get("ev") == "span"})
    print(f"\nprocesses in trace: {pids}")

    for ev in events:
        if ev.get("ev") == "manifest":
            man = ev["manifest"]
            print(
                f"\n== manifest ==\nkind={man['kind']}  "
                f"scenarios={man['n_scenarios']}  digest={man['digest']}\n"
                f"backend={man['backend']}  versions={man['versions']}"
            )
    for ev in events:
        if ev.get("ev") == "metrics":
            print("\n== final metrics snapshot ==")
            for name, value in ev["metrics"]["counters"].items():
                print(f"{name:<24} {value}")
            for name, h in ev["metrics"]["histograms"].items():
                print(
                    f"{name:<24} n={h['count']} mean={h['mean']:.4g} "
                    f"min={h['min']:.4g} max={h['max']:.4g}"
                )

    chrome = path.with_suffix(".chrome.json")
    chrome.write_text(json.dumps(obs.chrome_trace(events)))
    print(f"\nwrote {chrome} (load it in chrome://tracing or Perfetto)")

    # Hand the same trace to the analytics tier — what `python -m repro
    # obs summary/critical-path` would print for this file.
    print("\n== obs summary ==")
    print(obs.analyze.render_summary(events, source=path))
    print("\n== critical path ==")
    print(obs.analyze.render_critical_path(events))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
