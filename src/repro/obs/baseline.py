"""Perf-baseline gates: compare bench output against a committed curve.

CI uploads its pytest-benchmark documents as ``bench-out/*.json``
artifacts (their own directory: the root's ``BENCH_*.json`` files are
the perf ledger); before this module nothing read them back, and the
batching and JIT wins they record were unguarded against quiet
regression.  This module closes the loop:

* :func:`normalize_bench` flattens a pytest-benchmark document to one
  row per bench — its mean wall time plus every *numeric*
  ``extra_info`` figure (``scenarios_per_sec``, ``hops_per_sec``,
  ``speedup``, …; the emitters share one key schema so nothing here is
  per-file).
* ``benchmarks/baselines.json`` (a ``repro-bench-baseline`` document,
  built with ``repro obs bench-compare --update``) commits those rows
  as the expected curve.
* :func:`compare` grades a fresh run against the baseline with a
  configurable relative tolerance, direction-aware: throughput-like
  metrics (``*_per_sec``, ``speedup``) regress downward, time-like
  metrics (``mean_s``, ``*_ms``, ``ns_*``, ``overhead_fraction``)
  regress upward.

The CI gate is **warn-level**: ``repro obs bench-compare`` prints the
graded table and exits 0 unless ``--strict`` is passed, because absolute
numbers move with the runner hardware.  The tracked curve — and the
``--strict`` escalation path once variance is understood — is the point.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

from repro.core.errors import ReproError
from repro.io import parse_document

__all__ = [
    "BASELINE_FORMAT",
    "BASELINE_VERSION",
    "compare",
    "has_regressions",
    "load_baseline",
    "load_bench_doc",
    "make_baseline",
    "normalize_bench",
    "render_compare",
    "save_baseline",
    "update_baseline",
]

BASELINE_FORMAT = "repro-bench-baseline"
BASELINE_VERSION = 1

#: Default relative tolerance before a worse-direction move is graded a
#: regression; generous because CI runners are shared hardware.
DEFAULT_TOLERANCE = 0.5

#: Metric-name predicates for "lower is better".  Everything else —
#: ``*_per_sec``, ``speedup``, counts — is treated as higher-better.
_LOWER_IS_BETTER_SUFFIXES = ("_s", "_ms", "_fraction")
_LOWER_IS_BETTER_PREFIXES = ("ns_per", "time_")


def lower_is_better(metric: str) -> bool:
    """Direction of a metric from its (schema-normalized) name."""
    if metric.endswith("_per_s") or metric.endswith("_per_sec"):
        return False
    return metric.startswith(_LOWER_IS_BETTER_PREFIXES) or metric.endswith(
        _LOWER_IS_BETTER_SUFFIXES
    )


def normalize_bench(doc: Mapping) -> dict[str, dict]:
    """Flatten one pytest-benchmark JSON document to comparable rows.

    Returns ``{bench_name: {metric: value}}`` where the metrics are
    ``mean_s`` (the benchmark's mean wall time) plus every numeric
    ``extra_info`` entry.  Non-numeric extras (like ``backend``) are
    kept under the ``"info"`` key for display, never compared.
    """
    benches = doc.get("benchmarks")
    if not isinstance(benches, list):
        raise ReproError(
            "not a pytest-benchmark document (no 'benchmarks' list)"
        )
    out: dict[str, dict] = {}
    for bench in benches:
        name = bench.get("name")
        stats = bench.get("stats", {})
        row: dict = {"metrics": {}, "info": {}}
        if isinstance(stats.get("mean"), (int, float)):
            row["metrics"]["mean_s"] = float(stats["mean"])
        for key, value in sorted(bench.get("extra_info", {}).items()):
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                row["metrics"][key] = float(value)
            else:
                row["info"][key] = value
        out[str(name)] = row
    return out


def load_bench_doc(path: str | Path) -> dict[str, dict]:
    """Read and normalize one pytest-benchmark JSON file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ReproError(f"{path}: not valid JSON: {err}") from err
    try:
        return normalize_bench(doc)
    except ReproError as err:
        raise ReproError(f"{path}: {err}") from None


def merge_bench_docs(paths: Iterable[str | Path]) -> dict[str, dict]:
    """Normalize and merge several bench files into one row map.

    Bench names are globally unique across the suites (pytest would
    reject duplicates), so merging is a plain union; a duplicate name
    across files is a loud error rather than a silent overwrite.
    """
    merged: dict[str, dict] = {}
    for path in paths:
        for name, row in load_bench_doc(path).items():
            if name in merged:
                raise ReproError(
                    f"bench {name!r} appears in more than one input file"
                )
            merged[name] = row
    return merged


# -- baseline documents ------------------------------------------------------


def make_baseline(benches: Mapping[str, dict], **context) -> dict:
    """Wrap normalized rows as a ``repro-bench-baseline`` document."""
    return {
        "format": BASELINE_FORMAT,
        "version": BASELINE_VERSION,
        "context": dict(context),
        "benches": {name: dict(benches[name]) for name in sorted(benches)},
    }


def load_baseline(path: str | Path) -> dict:
    """Read a baseline document, validating its format header."""
    return parse_document(
        Path(path).read_text(encoding="utf-8"),
        BASELINE_FORMAT,
        (BASELINE_VERSION,),
        source=path,
    )


def save_baseline(doc: dict, path: str | Path) -> None:
    """Write a baseline document (sorted keys, trailing newline)."""
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def update_baseline(
    baseline: dict | None, benches: Mapping[str, dict], **context
) -> dict:
    """Fold fresh rows into a baseline (new benches added, rows replaced)."""
    rows = dict(baseline["benches"]) if baseline is not None else {}
    rows.update(benches)
    return make_baseline(rows, **context)


# -- grading -----------------------------------------------------------------


def compare(
    baseline: dict,
    benches: Mapping[str, dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Grade current bench rows against a baseline document.

    One row per ``(bench, metric)`` pair present in the baseline:
    ``{"bench", "metric", "baseline", "current", "ratio", "status"}``
    with status ``ok`` (within tolerance), ``improved`` (better by more
    than the tolerance), ``regressed`` (worse by more), or ``missing``
    (the bench/metric vanished from the current run — a skipped suite,
    e.g. numba benches on a numpy-only leg).  Benches only in the
    current run are appended as ``new`` rows with no grade.
    """
    rows: list[dict] = []
    base_rows = baseline.get("benches", {})
    for bench in sorted(base_rows):
        base_metrics = base_rows[bench].get("metrics", {})
        cur = benches.get(bench)
        if cur is None:
            rows.append(
                {
                    "bench": bench, "metric": None, "baseline": None,
                    "current": None, "ratio": None, "status": "missing",
                }
            )
            continue
        cur_metrics = cur.get("metrics", {})
        for metric in sorted(base_metrics):
            want = base_metrics[metric]
            got = cur_metrics.get(metric)
            row = {
                "bench": bench, "metric": metric, "baseline": want,
                "current": got, "ratio": None, "status": "missing",
            }
            if got is not None and want > 0:
                ratio = got / want
                row["ratio"] = ratio
                worse = (
                    ratio > 1 + tolerance
                    if lower_is_better(metric)
                    else ratio < 1 / (1 + tolerance)
                )
                better = (
                    ratio < 1 / (1 + tolerance)
                    if lower_is_better(metric)
                    else ratio > 1 + tolerance
                )
                row["status"] = (
                    "regressed" if worse else "improved" if better else "ok"
                )
            rows.append(row)
    for bench in sorted(set(benches) - set(base_rows)):
        rows.append(
            {
                "bench": bench, "metric": None, "baseline": None,
                "current": None, "ratio": None, "status": "new",
            }
        )
    return rows


def has_regressions(rows: Iterable[dict]) -> bool:
    """True when any graded row regressed."""
    return any(row["status"] == "regressed" for row in rows)


def render_compare(rows: Iterable[dict], tolerance: float) -> str:
    """The ``repro obs bench-compare`` report table."""
    lines = [
        f"  {'bench':<40} {'metric':<22} {'baseline':>12} "
        f"{'current':>12} {'ratio':>7}  status"
    ]
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
        if row["metric"] is None:
            lines.append(
                f"  {row['bench']:<40} {'-':<22} {'-':>12} {'-':>12} "
                f"{'-':>7}  {row['status']}"
            )
            continue
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "-"
        cur = f"{row['current']:g}" if row["current"] is not None else "-"
        lines.append(
            f"  {row['bench']:<40} {row['metric']:<22} "
            f"{row['baseline']:>12g} {cur:>12} {ratio:>7}  {row['status']}"
        )
    summary = ", ".join(
        f"{counts[k]} {k}" for k in ("ok", "improved", "regressed",
                                     "missing", "new") if k in counts
    )
    lines.append(
        f"  -- {summary or 'nothing compared'} "
        f"(tolerance ±{tolerance * 100:.0f}%)"
    )
    return "\n".join(lines)
