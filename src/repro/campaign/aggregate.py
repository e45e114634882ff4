"""Aggregation over a campaign's result store: tables and head-to-heads.

Everything here is a pure, order-independent function of the stored
records: records are sorted by scenario hash (and, within a group, by
seed) before any float is summed, so an interrupted-and-resumed campaign
aggregates to the *byte-identical* report of an uninterrupted run.

Both record reductions — the tables here and the reliability reduction
of :mod:`repro.campaign.reliability` — read records through one
grouping: :func:`_runs` yields each run once under the reduction's key,
skipping a literal duplicate record and refusing the same run stored
under two hashes, and :func:`_traffic_id` is the traffic identity both
keys share.

Two views are produced:

* :func:`aggregate_rows` — the comparison table of the MIN-performance
  literature: one row per (topology, traffic, rate, fault counts) grid
  cell, throughput/blocking/latency averaged over the seed axis.
* :func:`head_to_head` — the empirical echo of Theorem 1: topologies of
  equal shape that ran under the *same* traffic schedule and the *same*
  structural fault set (campaign fault seeds are topology-independent)
  are compared pairwise, per seed, and a pair whose mean throughput or
  latency difference exceeds the noise band is flagged as *divergent*.
  Baseline-equivalent topologies should never be flagged; a flag is
  either a real topological difference or a bug worth chasing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.campaign.store import ResultStore
from repro.core.errors import ReproError
from repro.sim.metrics import SimReport
from repro.spec.scenario import canonical_json

__all__ = [
    "aggregate_rows",
    "aggregate_table",
    "dumps_aggregate",
    "head_to_head",
    "head_to_head_table",
    "load_records",
]

_AGGREGATE_FORMAT = "repro-campaign-aggregate"
_AGGREGATE_VERSION = 1


def load_records(
    store: str | Path | ResultStore,
    *,
    hashes: Iterable[str] | None = None,
) -> list[dict]:
    """Load store records sorted by scenario hash.

    ``hashes`` restricts the result to one campaign's scenarios (pass the
    hashes of an expanded spec) — stores may accumulate several sweeps.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    wanted = set(hashes) if hashes is not None else None
    records = [
        r for r in store.records()
        if wanted is None or r["hash"] in wanted
    ]
    records.sort(key=lambda r: r["hash"])
    return records


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _sample_std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(
        math.fsum((v - mu) ** 2 for v in values) / (len(values) - 1)
    )


def _traffic_id(scenario: Mapping) -> str:
    """The traffic identity of a scenario wire dict: the canonical JSON
    of its traffic dict with the rate split out.

    Not the report's display label — two permutation patterns both
    describe themselves as ``"permutation"`` yet are different traffic.
    """
    return canonical_json(
        {k: v for k, v in scenario["traffic"].items() if k != "rate"}
    )


def _runs(
    records: Iterable[Mapping], key: Callable[[Mapping], tuple]
) -> Iterator[tuple[tuple, Mapping]]:
    """Yield ``(key(record), record)`` once per run, a run being one
    ``(key, seed)`` pair.

    The one duplicate check of both record reductions.  A literal
    duplicate — the same run under the same hash, e.g. a record line
    appended twice — is skipped.  The same run under two hashes means
    the store mixes incompatible sweeps (e.g. a topology file changed
    between runs); reducing both would silently corrupt every rate, so
    it raises.
    """
    seen: dict[tuple, str] = {}
    for record in records:
        k = key(record)
        s = record["scenario"]
        run = (k, s["seed"])
        first = seen.get(run)
        if first is None:
            seen[run] = record["hash"]
            yield k, record
        elif first != record["hash"]:
            raise ReproError(
                "store holds two different results for "
                f"{s['topology']['label']} "
                f"faults={(s['fault_cells'], s['fault_links'])} "
                f"seed={s['seed']} (hashes {first} and {record['hash']}); "
                "restrict aggregation to one campaign's scenarios "
                "(report --spec) or use a fresh store"
            )


def _cell_key(record: Mapping) -> tuple:
    """The grid-cell identity of a record: everything but the seed axis."""
    s = record["scenario"]
    r = record["report"]
    return (
        s["topology"]["label"],
        r["n_stages"],
        r["size"],
        _traffic_id(s),
        s["traffic"]["rate"],
        s["fault_cells"],
        s["fault_links"],
        s["cycles"],
        s["policy"],
        s["drain"],
    )


def _group_by_cell(
    records: Iterable[Mapping],
) -> dict[tuple, list[tuple[int, SimReport]]]:
    """Group records by grid cell as ``(seed, report)`` pairs.

    Each stored report dict is parsed into a :class:`SimReport` exactly
    once per run (:func:`_runs`), so the derived-rate formulas
    (throughput, blocking) live only in :mod:`repro.sim.metrics`.
    """
    groups: dict[tuple, list[tuple[int, SimReport]]] = {}
    for key, record in _runs(records, _cell_key):
        report = SimReport.from_dict(record["report"])
        groups.setdefault(key, []).append((record["scenario"]["seed"], report))
    for members in groups.values():
        members.sort(key=lambda m: m[0])
    return groups


def aggregate_rows(records: Iterable[Mapping]) -> list[dict]:
    """One comparison-table row per grid cell, averaged over seeds."""
    rows = []
    for key, members in sorted(_group_by_cell(records).items()):
        label, n_stages, size, _tid, rate, cells, links, cyc, pol, drn = key
        thr = [rep.throughput for _, rep in members]
        blk = [rep.blocking_probability for _, rep in members]
        lat = [rep.mean_latency for _, rep in members]
        unr = [rep.unroutable for _, rep in members]
        rows.append(
            {
                "topology": label,
                "n_stages": n_stages,
                "size": size,
                "traffic": members[0][1].traffic,  # display label
                "rate": rate,
                "fault_cells": cells,
                "fault_links": links,
                "cycles": cyc,
                "policy": pol,
                "drain": drn,
                "seeds": len(members),
                "throughput_mean": _mean(thr),
                "throughput_std": _sample_std(thr),
                "blocking_mean": _mean(blk),
                "latency_mean": _mean(lat),
                "unroutable_total": int(sum(unr)),
            }
        )
    return rows


def aggregate_table(rows: Sequence[Mapping]) -> str:
    """Render aggregate rows as a fixed-width text table."""
    header = (
        f"{'topology':<22} {'traffic':<28} {'rate':>5} {'flt':>7} "
        f"{'seeds':>5} {'thrpt':>7} {'±std':>7} {'block':>7} {'lat':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        flt = f"{row['fault_cells']}c{row['fault_links']}l"
        lines.append(
            f"{row['topology']:<22} {row['traffic']:<28} "
            f"{row['rate']:>5.2f} {flt:>7} {row['seeds']:>5} "
            f"{row['throughput_mean']:>7.4f} {row['throughput_std']:>7.4f} "
            f"{row['blocking_mean']:>7.4f} {row['latency_mean']:>7.2f}"
        )
    return "\n".join(lines)


def head_to_head(
    records: Iterable[Mapping],
    *,
    atol_throughput: float = 0.02,
    atol_latency: float = 0.5,
    z: float = 3.0,
) -> list[dict]:
    """Pairwise comparison of same-shape topologies under identical load.

    Groups grid cells that agree on everything except the topology —
    shape, traffic schedule, rate, fault counts (and, per seed, the very
    fault set, since campaign fault seeds are topology-independent) —
    and compares each topology pair through the *paired* per-seed deltas.

    A pair is ``divergent`` when the mean throughput (or latency) delta
    exceeds the absolute tolerance and ``z`` standard errors — i.e. when
    the difference is too large *and* too consistent to be sampling
    noise.  The standard error takes the largest of three estimates,
    because each one underestimates in a regime the others cover:

    * the *paired* per-seed delta spread — the sharpest when seeds pair
      cleanly, but spuriously small when few deltas happen to agree;
    * the *unpaired* across-seed spread of each topology — under faults
      the same fault coordinates hit different wiring in each topology,
      so per-seed deltas carry the full fault-geometry variance both
      topologies show across draws;
    * a binomial floor ``√(p(1-p)/(cycles·N))`` per run — the resolution
      limit of the simulation itself, which keeps one-seed campaigns
      from flagging differences the run lengths cannot even resolve.
    """
    cells: dict[tuple, dict[str, dict[int, SimReport]]] = {}
    for key, members in _group_by_cell(records).items():
        label, rest = key[0], key[1:]
        cells.setdefault(rest, {})[label] = dict(members)
    results = []
    for rest, by_label in sorted(cells.items()):
        n_stages, size, _tid, rate, fcells, flinks, cyc, pol, drn = rest
        labels = sorted(by_label)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                seeds_a = by_label[a]
                seeds_b = by_label[b]
                common = sorted(set(seeds_a) & set(seeds_b))
                if not common:
                    continue
                thr_a = [seeds_a[s].throughput for s in common]
                thr_b = [seeds_b[s].throughput for s in common]
                lat_a = [seeds_a[s].mean_latency for s in common]
                lat_b = [seeds_b[s].mean_latency for s in common]
                d_thr = [x - y for x, y in zip(thr_a, thr_b)]
                d_lat = [x - y for x, y in zip(lat_a, lat_b)]
                n = len(common)
                slots = cyc * 2 * size  # delivery opportunities per run
                var_binom = _mean(
                    [
                        sum(
                            max(p * (1.0 - p), 0.25 / slots)
                            for p in (pa, pb)
                        )
                        / slots
                        for pa, pb in zip(thr_a, thr_b)
                    ]
                )
                se_floor = math.sqrt(var_binom / n)

                def _verdict(
                    deltas: list[float],
                    a_vals: list[float],
                    b_vals: list[float],
                    atol: float,
                    floor: float,
                ) -> bool:
                    mu = abs(_mean(deltas))
                    se_paired = _sample_std(deltas) / math.sqrt(n)
                    se_unpaired = math.sqrt(
                        (_sample_std(a_vals) ** 2 + _sample_std(b_vals) ** 2)
                        / n
                    )
                    se = max(se_paired, se_unpaired, floor)
                    return mu > atol and mu > z * se

                results.append(
                    {
                        "topology_a": a,
                        "topology_b": b,
                        "n_stages": n_stages,
                        "size": size,
                        "traffic": seeds_a[common[0]].traffic,
                        "rate": rate,
                        "fault_cells": fcells,
                        "fault_links": flinks,
                        "cycles": cyc,
                        "policy": pol,
                        "drain": drn,
                        "seeds": n,
                        "throughput_delta_mean": _mean(d_thr),
                        "throughput_delta_max": max(abs(d) for d in d_thr),
                        "latency_delta_mean": _mean(d_lat),
                        "latency_delta_max": max(abs(d) for d in d_lat),
                        "divergent": (
                            _verdict(
                                d_thr, thr_a, thr_b, atol_throughput,
                                se_floor,
                            )
                            or _verdict(d_lat, lat_a, lat_b, atol_latency, 0.0)
                        ),
                    }
                )
    return results


def head_to_head_table(entries: Sequence[Mapping]) -> str:
    """Render head-to-head entries as a fixed-width text table."""
    header = (
        f"{'pair':<38} {'traffic':<24} {'rate':>5} {'flt':>7} "
        f"{'Δthrpt':>8} {'Δlat':>7} {'verdict':>10}"
    )
    lines = [header, "-" * len(header)]
    for e in entries:
        pair = f"{e['topology_a']} vs {e['topology_b']}"
        flt = f"{e['fault_cells']}c{e['fault_links']}l"
        verdict = "DIVERGENT" if e["divergent"] else "match"
        lines.append(
            f"{pair:<38} {e['traffic']:<24} {e['rate']:>5.2f} {flt:>7} "
            f"{e['throughput_delta_mean']:>+8.4f} "
            f"{e['latency_delta_mean']:>+7.2f} {verdict:>10}"
        )
    n_div = sum(1 for e in entries if e["divergent"])
    lines.append(
        f"{len(entries)} pairs, {n_div} divergent"
        + ("" if n_div else " — equivalence holds empirically")
    )
    return "\n".join(lines)


def dumps_aggregate(
    records: Iterable[Mapping],
    *,
    indent: int | None = None,
    rows: Sequence[Mapping] | None = None,
    head: Sequence[Mapping] | None = None,
    **h2h_kwargs,
) -> str:
    """The canonical aggregate report as a JSON string.

    Deterministic by construction — sorted rows, sorted keys — so two
    stores holding the same scenario results serialize to byte-identical
    reports regardless of completion order or interruptions; a record
    line stored twice counts once in ``n_scenarios`` as in the rows.
    Pass ``rows``/``head`` when :func:`aggregate_rows` and
    :func:`head_to_head` results are already at hand (the CLI prints
    them as tables first) to skip recomputing them.
    """
    records = list(records)
    doc = {
        "format": _AGGREGATE_FORMAT,
        "version": _AGGREGATE_VERSION,
        "n_scenarios": len({r["hash"] for r in records}),
        "rows": list(rows) if rows is not None else aggregate_rows(records),
        "head_to_head": (
            list(head) if head is not None
            else head_to_head(records, **h2h_kwargs)
        ),
    }
    return json.dumps(doc, sort_keys=True, indent=indent)
