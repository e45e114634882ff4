"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro classify omega 4            # property report
    python -m repro render baseline 4           # ASCII wire diagram
    python -m repro classify --file net.json    # classify a saved network
    python -m repro export omega 4 out.json     # save a classical network
    python -m repro experiments [ids…]          # alias of the runner
    python -m repro simulate omega 5 --traffic hotspot --rate 0.8 \\
        --cycles 200 --seed 0                   # traffic simulation
    python -m repro simulate --network omega_k --param k=2 \\
        --stages 4                              # any registry entry
    python -m repro simulate --network saved.json --cycles 100
    python -m repro campaign run --topologies omega baseline flip \\
        --stages 5 --rates 0.6 0.9 --fault-cells 0 2 4 \\
        --seeds 0 1 2 --workers 4 --store sweep.jsonl
    python -m repro campaign status --spec grid.json --store sweep.jsonl
    python -m repro campaign report --store sweep.jsonl --json agg.json
    python -m repro campaign watch --store sweep.jsonl   # live progress
    python -m repro campaign quarantine --store sweep.jsonl
    python -m repro campaign store verify --store sweep.jsonl
    python -m repro obs summary trace.jsonl     # trace analytics
    python -m repro obs critical-path trace.jsonl
    python -m repro obs diff before.jsonl after.jsonl
    python -m repro obs bench-compare bench-out/*.json

Every simulation-shaped subcommand goes through one resolution path:
:func:`spec_from_args` turns the parsed flags into a typed
:class:`~repro.spec.scenario.ScenarioSpec` (``simulate``),
:class:`~repro.campaign.spec.CampaignSpec` grid (``campaign run`` /
``status`` / ``report``) or
:class:`~repro.campaign.reliability.ReliabilitySweepSpec`
(``campaign reliability``), and the spec resolves networks, traffic
patterns and fault samples through the registries.  ``--network``
accepts any registry entry — including parameterized ones like
``omega_k`` (``--param k=3``) — or a path to a saved
``repro-midigraph`` JSON file, with no special-case branches.

``simulate`` runs the cycle-based packet simulator of :mod:`repro.sim`
and prints a deterministic :class:`~repro.sim.metrics.SimReport`;
``--faults``/``--fault-links`` injects random dead switches and severed
links, ``--json`` archives the report, ``--save-scenario`` archives the
spec itself (replay it with ``--scenario``).

``campaign`` drives :mod:`repro.campaign`: ``run`` expands a sweep grid
(from a ``repro-campaign`` spec file or inline axis flags) and fans it
out over a worker pool into an append-only JSONL store — same-topology
scenario groups are fused into single ``simulate_batch`` passes
(``--batch`` caps the group size, ``--batch 1`` restores per-scenario
dispatch) and re-running with ``--resume`` after an interruption
finishes only the missing scenarios;
``status`` counts stored vs. missing scenarios; ``report`` prints the
aggregate comparison table and the equivalence head-to-head.  Worker
faults are supervised (:mod:`repro.campaign.supervisor`):
``--task-timeout`` kills and re-runs hung groups, ``--retries`` bounds
the immediate re-runs of a scenario whose worker crashed or hung
(crashed workers respawned, numba failures degraded to numpy; a raise
is never re-run), and scenarios that still fail land in a
``.quarantine.jsonl`` sidecar with their remote tracebacks —
``--on-error abort`` makes them fatal instead.  A raise the
environment caused (a ``MemoryError``, say) is re-run with
``campaign quarantine --requeue`` and ``--resume``.
``campaign quarantine`` lists the sidecar (``--show`` for one full
traceback, ``--requeue``/``--requeue-all`` to hand scenarios back to
the next ``--resume`` run); ``campaign store verify``/``repair``
checks the per-record crc checksums and drops corrupt lines to a
``.bad`` sidecar.  While a
run is in flight it publishes an atomically-replaced heartbeat JSON
next to the store (``--heartbeat`` / ``REPRO_CAMPAIGN_HEARTBEAT``
tunes or disables the cadence) which ``campaign watch`` tails from any
other process for live progress, rates and ETA.  ``campaign
reliability`` takes every ``campaign run`` execution flag and runs
through the same executor.
A :class:`~repro.core.errors.ReproError` from any subcommand exits
with ``error: <message>`` and status 1 instead of a traceback.

``obs`` is the telemetry analytics tier over recorded traces
(:mod:`repro.obs.analyze`): ``summary`` prints per-phase aggregates,
worker utilization and cache efficiency, ``tree`` the span forest,
``critical-path`` the dominant dispatch→queue→kernel chain, ``flame``
a Chrome-tracing export, ``diff`` a phase-by-phase comparison of two
traces, and ``bench-compare`` grades ``bench-out/*.json`` suites against
the committed ``benchmarks/baselines.json`` curve
(:mod:`repro.obs.baseline`).

Global flags (before the subcommand): ``-v``/``-q`` raise or lower the
``repro`` logger hierarchy's level (default INFO, overridable through
``REPRO_LOG_LEVEL``), and ``--trace PATH`` — or the ``REPRO_TRACE``
environment variable — streams a ``repro-trace`` JSONL telemetry file
(spans, metrics, run manifest; see :mod:`repro.obs`) for the
invocation.  ``campaign status --metrics TRACE`` prints the per-phase
timing table and aggregated metrics of such a file.

Simulation network names come from the registry
(:data:`repro.networks.catalog.NETWORK_CATALOG`; see ``--help``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from repro.analysis.classify import classify
from repro.core.errors import ReproError
from repro.io import (
    dump_network,
    dump_report,
    dump_scenario,
    load_network,
    load_scenario,
)
from repro.networks.catalog import (
    CLASSICAL_NETWORKS,
    NETWORK_CATALOG,
    classical_network,
)
from repro.obs import analyze as obs_analyze
from repro.obs import baseline as obs_baseline
from repro.obs import trace as obs
from repro.obs.log import configure, get_logger
from repro.sim import TRAFFIC_PATTERNS, simulate
from repro.sim.kernels import BACKEND_CHOICES
from repro.spec.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
    is_file_entry,
)
from repro.viz.ascii_net import render_wire_diagram

__all__ = ["main", "spec_from_args"]

_log = get_logger("cli")


def _show_network(args: argparse.Namespace, *, show, error) -> int:
    """``classify`` / ``render``: print ``show(network)``."""
    if not args.file and args.name is None:
        error("provide a network name or --file")
    if args.file:
        print(show(load_network(args.file)))
    else:
        print(show(classical_network(args.name, args.n)))
    return 0


def _export(args: argparse.Namespace) -> int:
    dump_network(classical_network(args.name, args.n), args.output)
    _log.info("wrote %s(%d) to %s", args.name, args.n, args.output)
    return 0


def _experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    return runner_main(args.ids)


def _lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import run_lint

    return run_lint(
        args.paths, rules=args.rules, strict=args.strict, fmt=args.fmt
    )


def _add_network_args(sub: argparse.ArgumentParser, names) -> None:
    """The ``name [n]`` positionals (``name`` from ``names``) + ``--file``."""
    sub.add_argument(
        "name", nargs="?", choices=sorted(names), help="network name"
    )
    sub.add_argument(
        "n",
        nargs="?",
        type=int,
        default=4,
        help="network order: number of stages for the classical networks; "
        "benes(n) has 2n-1 stages on 2^n terminals",
    )
    sub.add_argument(
        "--file", help="load the network from a repro-midigraph JSON file"
    )


def _parse_params(entries: list[str] | None) -> dict:
    """``--param k=3`` pairs as a registry-schema kwargs dict.

    Values parse as JSON scalars where possible (``3`` → int,
    ``0.5`` → float) and fall back to plain strings.
    """
    params: dict = {}
    for text in entries or ():
        key, sep, value = text.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"--param entries must look like name=value, got {text!r}"
            )
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _traffic_entry(name: str, args: argparse.Namespace) -> str | dict:
    """A campaign/scenario traffic entry from the shared traffic flags."""
    if name == "hotspot":
        return {"name": "hotspot", "fraction": args.hotspot_fraction}
    return name


def _scenario_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The single-run branch of :func:`spec_from_args` (``simulate``)."""
    if getattr(args, "scenario", None):
        return load_scenario(args.scenario)
    entry = args.network or args.file or args.name
    if entry is None:
        raise SystemExit(
            "provide a network name, --network, --file or --scenario"
        )
    params = _parse_params(getattr(args, "param", None))
    n = args.stages if args.stages is not None else args.n
    from_file_flag = args.file is not None and entry == args.file
    if from_file_flag or is_file_entry(str(entry)):
        # The full entry string stays the label, matching what the
        # report always displayed for file runs.  Pinning records the
        # content digest, so a spec saved with --save-scenario refuses
        # to replay against a silently modified file.
        network = NetworkSpec.file(entry, label=str(entry)).pin()
    else:
        network = NetworkSpec.catalog(str(entry), n=n, **params)
    traffic_entry = _traffic_entry(args.traffic, args)
    if isinstance(traffic_entry, str):
        traffic = TrafficSpec.of(traffic_entry, args.rate)
    else:
        traffic = TrafficSpec.from_spec({**traffic_entry, "rate": args.rate})
    faults = FaultSpec()
    if args.faults or args.fault_links:
        fault_seed = (
            args.seed if args.fault_seed is None else args.fault_seed
        )
        faults = FaultSpec(
            cells=args.faults, links=args.fault_links, seed=fault_seed
        )
    return ScenarioSpec(
        network=network,
        traffic=traffic,
        sim=SimPolicy(
            cycles=args.cycles,
            policy=args.policy,
            drain=args.drain,
        ),
        faults=faults,
        seed=args.seed,
    )


def _grid_from_args(args: argparse.Namespace):
    """The grid branch of :func:`spec_from_args` (``campaign`` commands).

    ``campaign reliability`` namespaces (the ones with ``--networks``)
    build a reliability sweep, every other one a campaign grid.
    """
    from repro.campaign import CampaignSpec, ReliabilitySweepSpec, loads_sweep
    from repro.io import load_campaign

    sweep = hasattr(args, "networks")
    if args.spec:
        path = Path(args.spec)
        if sweep:
            return loads_sweep(path.read_text(encoding="utf-8")), path.parent
        return load_campaign(path), path.parent
    entries = args.networks if sweep else getattr(args, "topologies", None)
    if not entries:
        raise SystemExit("provide --spec or at least --topologies")
    # Resolve file topologies now: a spec written by --save-spec is
    # re-anchored to its own directory on --spec, so cwd-relative paths
    # must not leak into it.
    entries = tuple(
        str(Path(t).resolve()) if is_file_entry(t) else t for t in entries
    )
    policy = {
        "cycles": args.cycles,
        "policy": args.policy,
        "drain": args.drain,
        "fault_seed_base": args.fault_seed_base,
    }
    if sweep:
        spec = ReliabilitySweepSpec(
            networks=entries,
            stages=args.stages,
            traffic=_traffic_entry(args.traffic, args),
            rate=args.rate,
            max_faults=args.max_faults,
            draws=args.draws,
            threshold=args.threshold,
            **policy,
        )
        return spec, None
    traffic = [_traffic_entry(name, args) for name in args.traffic]
    faults = [
        {"cells": c, "links": l}
        for c in args.fault_cells
        for l in args.fault_links
    ]
    spec = CampaignSpec(
        topologies=entries,
        stages=tuple(args.stages),
        traffic=tuple(traffic),
        rates=tuple(args.rates),
        faults=tuple(faults),
        seeds=tuple(args.seeds),
        **policy,
    )
    return spec, None


def spec_from_args(args: argparse.Namespace):
    """The one CLI → spec path, shared by every simulation subcommand.

    Returns ``(spec, base_dir)``: a
    :class:`~repro.spec.scenario.ScenarioSpec` for ``simulate``
    namespaces (``base_dir`` is ``None``), a
    :class:`~repro.campaign.reliability.ReliabilitySweepSpec` for
    ``campaign reliability`` namespaces and a
    :class:`~repro.campaign.spec.CampaignSpec` grid for the other
    ``campaign`` namespaces (``base_dir`` anchors relative
    file-topology paths when the grid came from ``--spec``).
    """
    if hasattr(args, "spec"):
        return _grid_from_args(args)
    return _scenario_from_args(args), None


def _run_simulate(args: argparse.Namespace) -> int:
    spec, _ = spec_from_args(args)
    if args.save_scenario:
        dump_scenario(spec, args.save_scenario)
        _log.info("wrote scenario spec to %s", args.save_scenario)
    report = simulate(spec, backend=args.backend)
    print(report.summary())
    if report.timings is not None:
        total = report.timings["total"]
        _log.info(
            "  timings              "
            + "  ".join(
                f"{phase}={report.timings[phase] * 1e3:.2f}ms"
                for phase in ("traffic", "compile", "run", "total")
            )
        )
    if args.json:
        dump_report(report, args.json)
        _log.info("wrote report to %s", args.json)
    return 0


def _run_campaign_cmd(args: argparse.Namespace) -> int:
    from repro.io import dump_campaign

    spec, base_dir = spec_from_args(args)
    if args.save_spec:
        dump_campaign(spec, args.save_spec)
        _log.info("wrote campaign spec to %s", args.save_spec)

    def progress(record: dict, done: int, total: int) -> None:
        scenario = record["scenario"]
        label = scenario["topology"]["label"]
        _log.info(
            "[%d/%d] %s  traffic=%s  rate=%g  faults=%dc%dl  seed=%d",
            done, total, label,
            record["report"]["traffic"],
            scenario["traffic"]["rate"],
            scenario["fault_cells"], scenario["fault_links"],
            scenario["seed"],
        )

    _execute(spec, args, base_dir, None if args.quiet else progress)
    return 0


def _execute(campaign, args, base_dir, progress=None, *, what="campaign"):
    """The CLI's one ``run_campaign`` call, under the execution flags of
    ``campaign run`` / ``reliability``; logs the outcome as ``what``."""
    from repro.campaign import run_campaign

    summary = run_campaign(
        campaign,
        args.store,
        workers=args.workers,
        batch=args.batch,
        resume=args.resume,
        base_dir=base_dir,
        progress=progress,
        backend=None if args.backend == "auto" else args.backend,
        heartbeat=args.heartbeat,
        task_timeout=args.task_timeout,
        retries=args.retries,
        on_error=args.on_error,
    )
    cache = summary["compile_cache"]
    _log.info(
        "%s complete: %d scenarios (%d resumed, %d run) -> %s",
        what, summary["total"], summary["skipped"], summary["ran"],
        summary["store"],
    )
    if summary.get("quarantined") or summary.get("quarantined_skipped"):
        _log.warning(
            "quarantined: %d scenario(s) this run, %d skipped from a "
            "prior run -> %s (inspect: python -m repro campaign "
            "quarantine --store %s)",
            summary["quarantined"], summary["quarantined_skipped"],
            summary["quarantine"], summary["store"],
        )
    _log.info(
        "compile cache: %d hits / %d misses across workers",
        cache["hits"], cache["misses"],
    )
    tele = summary.get("telemetry")
    if tele is not None:
        for pid, row in tele["workers"].items():
            _log.info(
                "worker %s: %d group(s), %d scenario(s), busy %.3fs "
                "(%.0f%% utilization)",
                pid, row["groups"], row["scenarios"], row["busy_s"],
                100.0 * row["utilization"],
            )


def _trace_events(trace_path: str) -> list[dict]:
    """Load + schema-check a trace for the consumer commands."""
    try:
        return obs_analyze.load_events(trace_path)
    except OSError as err:
        raise SystemExit(f"cannot read trace file: {err}") from err


# ``python -m repro obs``: the trace analytics / baseline toolkit.  Thin
# handlers only — every table is rendered by :mod:`repro.obs.analyze` /
# :mod:`repro.obs.baseline` so the math stays importable.


def _obs_summary(args: argparse.Namespace) -> int:
    print(obs_analyze.render_summary(
        _trace_events(args.trace_file), source=args.trace_file
    ))
    return 0


def _obs_tree(args: argparse.Namespace) -> int:
    print(obs_analyze.render_tree(
        _trace_events(args.trace_file),
        max_depth=args.depth,
        max_children=args.limit,
    ))
    return 0


def _obs_critical_path(args: argparse.Namespace) -> int:
    print(obs_analyze.render_critical_path(_trace_events(args.trace_file)))
    return 0


def _obs_flame(args: argparse.Namespace) -> int:
    events = _trace_events(args.trace_file)
    out = args.out or str(Path(args.trace_file).with_suffix(".chrome.json"))
    Path(out).write_text(
        json.dumps(obs.chrome_trace(events)), encoding="utf-8"
    )
    print(f"wrote {out} (load it in chrome://tracing or Perfetto)")
    return 0


def _obs_diff(args: argparse.Namespace) -> int:
    a, b = _trace_events(args.trace_a), _trace_events(args.trace_b)
    print(f"per-phase deltas: {args.trace_b} vs {args.trace_a}")
    print(obs_analyze.render_diff(
        a, b, a_name=Path(args.trace_a).stem,
        b_name=Path(args.trace_b).stem,
    ))
    return 0


def _bench_compare(args: argparse.Namespace) -> int:
    """``repro obs bench-compare``: the perf-baseline gate."""
    current = obs_baseline.merge_bench_docs(args.bench_files)
    baseline_doc = None
    if Path(args.baseline).exists():
        baseline_doc = obs_baseline.load_baseline(args.baseline)
    elif not args.update:
        raise SystemExit(
            f"no baseline at {args.baseline}; run with --update to "
            "record one"
        )
    if args.update:
        doc = obs_baseline.update_baseline(
            baseline_doc, current, source=[str(p) for p in args.bench_files]
        )
        obs_baseline.save_baseline(doc, args.baseline)
        print(
            f"baseline {args.baseline} updated: "
            f"{len(doc['benches'])} bench(es)"
        )
        return 0
    rows = obs_baseline.compare(
        baseline_doc, current, tolerance=args.tolerance
    )
    print(f"bench-compare against {args.baseline}:")
    print(obs_baseline.render_compare(rows, args.tolerance))
    regressed = obs_baseline.has_regressions(rows)
    if regressed:
        _log.warning(
            "performance regressions detected (warn-level gate%s)",
            "; failing due to --strict" if args.strict else "",
        )
    return 1 if regressed and args.strict else 0


def _campaign_watch(args: argparse.Namespace) -> int:
    """``campaign watch``: live progress of a run in another process."""
    from repro.campaign.heartbeat import render_watch_line, watch_campaign

    last = None
    stream = sys.stdout
    refresh = stream.isatty() and not args.once
    for snap in watch_campaign(
        args.store, interval=args.interval, timeout=args.timeout
    ):
        line = render_watch_line(snap)
        if refresh:
            stream.write("\r\x1b[2K" + line)
            stream.flush()
        else:
            print(line)
        last = snap
        if args.once:
            break
    if refresh:
        stream.write("\n")
    return 0 if last is not None and last["status"] == "complete" else 1


def _campaign_quarantine(args: argparse.Namespace) -> int:
    """``campaign quarantine``: list/inspect/requeue quarantined scenarios."""
    from repro.campaign.errors import QuarantineStore, quarantine_path

    qstore = QuarantineStore(quarantine_path(args.store))
    if not qstore.exists():
        print(f"no quarantine sidecar next to {args.store}")
        return 0
    if args.requeue or args.requeue_all:
        dropped = qstore.requeue(None if args.requeue_all else args.requeue)
        print(
            f"requeued {dropped} scenario(s) from {qstore.path} "
            "(re-run the campaign with --resume to execute them)"
        )
        return 0
    if args.show:
        failure = qstore.get(args.show)
        if failure is None:
            print(f"no quarantined scenario matches {args.show!r}")
            return 1
        print(failure.summary())
        print(f"  attempts: {failure.attempts}")
        print(f"  backends: {', '.join(failure.backends)}")
        if failure.worker_pid is not None:
            print(f"  worker pid: {failure.worker_pid}")
        print("  remote traceback:")
        for line in failure.traceback.rstrip("\n").split("\n"):
            print(f"    {line}")
        return 1
    failures = list(qstore.records())
    print(f"{len(failures)} quarantined scenario(s) in {qstore.path}")
    for failure in failures:
        print(f"  {failure.summary()}")
    return 1 if failures else 0


def _open_store(path: str):
    """The result store at ``path``, or ``None`` once its absence is said."""
    from repro.campaign import ResultStore

    store = ResultStore(path)
    if store.exists():
        return store
    print(f"no store at {path}")
    return None


def _store_repair(args: argparse.Namespace) -> int:
    """``campaign store repair``: drop corrupt record lines to a sidecar."""
    store = _open_store(args.store)
    if store is None:
        return 1
    report = store.repair()
    if report["dropped"]:
        print(
            f"{args.store}: dropped {report['dropped']} corrupt "
            f"record(s) -> {report['bad_file']}; "
            f"{report['records']} record(s) kept"
        )
    else:
        print(f"{args.store}: clean ({report['records']} record(s))")
    return 0


def _store_verify(args: argparse.Namespace) -> int:
    """``campaign store verify``: record-level integrity checks."""
    store = _open_store(args.store)
    if store is None:
        return 1
    report = store.verify()
    if report["ok"]:
        print(f"{args.store}: ok ({report['records']} record(s))")
    else:
        print(
            f"{args.store}: {len(report['bad'])} corrupt record(s), "
            f"{report['records']} good"
        )
        for bad in report["bad"]:
            print(f"  line {bad['line']}: {bad['reason']}")
        print(f"repair with: python -m repro campaign store repair "
              f"--store {args.store}")
    status = 0 if report["ok"] else 1
    if args.sidecars:
        status = max(status, _verify_sidecars(args.store))
    return status


def _verify_sidecars(store_path: str) -> int:
    """The ``store verify --sidecars`` leg: quarantine + heartbeat audit."""
    from repro.campaign import QuarantineStore, quarantine_path
    from repro.campaign.heartbeat import heartbeat_path, read_heartbeat

    status = 0
    qstore = QuarantineStore(quarantine_path(store_path))
    try:
        qreport = qstore.verify()
    except ReproError as err:
        print(f"{qstore.path}: broken quarantine header: {err}")
        status = 1
    else:
        if not qreport["exists"]:
            print(f"{qreport['path']}: no quarantine sidecar (ok)")
        elif qreport["ok"]:
            torn = " + torn tail (tolerated)" if qreport["torn_tail"] else ""
            print(
                f"{qreport['path']}: ok ({qreport['records']} "
                f"failure(s){torn})"
            )
        else:
            print(
                f"{qreport['path']}: {len(qreport['bad'])} corrupt "
                f"failure record(s), {qreport['records']} good"
            )
            for bad in qreport["bad"]:
                print(f"  line {bad['line']}: {bad['reason']}")
            status = 1
    hb_path = heartbeat_path(store_path)
    try:
        snapshot = read_heartbeat(hb_path)
    except ReproError as err:
        print(f"{hb_path}: corrupt heartbeat: {err}")
        return 1
    if snapshot is None:
        print(f"{hb_path}: no heartbeat sidecar (ok)")
    else:
        print(
            f"{hb_path}: ok (status={snapshot['status']}, "
            f"{snapshot['done']}/{snapshot['total']} done)"
        )
    return status


def _campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore, expand_scenarios

    spec, base_dir = spec_from_args(args)
    scenarios = expand_scenarios(spec, base_dir=base_dir)
    stored = ResultStore(args.store).hashes()
    done = sum(1 for s in scenarios if s.digest in stored)
    print(
        f"{done}/{len(scenarios)} scenarios stored in {args.store} "
        f"({len(scenarios) - done} missing)"
    )
    by_label: dict[str, list[int]] = {}
    for s in scenarios:
        got = by_label.setdefault(s.label, [0, 0])
        got[0] += 1 if s.digest in stored else 0
        got[1] += 1
    for label in sorted(by_label):
        got, total = by_label[label]
        print(f"  {label:<24} {got}/{total}")
    if getattr(args, "metrics", None):
        table = obs_analyze.render_trace_metrics(
            _trace_events(args.metrics), source=args.metrics
        )
        if table:
            print(table)
    return 0 if done == len(scenarios) else 1


def _print_reliability(records, threshold, baseline) -> dict:
    """Print the availability-curve and saturation/MTTF tables."""
    from repro.campaign import (
        reliability_report,
        reliability_summary_table,
        reliability_table,
    )

    report = reliability_report(
        records, threshold=threshold, baseline=baseline
    )
    print(reliability_table(report))
    print()
    print(reliability_summary_table(report))
    return report


def _campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import (
        aggregate_rows,
        aggregate_table,
        dumps_aggregate,
        expand_scenarios,
        head_to_head,
        head_to_head_table,
        load_records,
    )

    hashes = None
    if args.spec:
        spec, base_dir = spec_from_args(args)
        hashes = {s.digest for s in expand_scenarios(spec, base_dir=base_dir)}
    records = load_records(args.store, hashes=hashes)
    if not records:
        print(f"no records in {args.store}")
        return 1
    rows = aggregate_rows(records)
    head = head_to_head(records)
    print(aggregate_table(rows))
    print()
    print("equivalence head-to-head (same shape, same faults):")
    print(head_to_head_table(head))
    if args.reliability:
        print()
        print("reliability (structural availability vs fault count):")
        _print_reliability(records, args.threshold, args.baseline)
    if args.json:
        Path(args.json).write_text(
            dumps_aggregate(records, indent=2, rows=rows, head=head),
            encoding="utf-8",
        )
        print(f"\nwrote aggregate report to {args.json}")
    return 0


def _campaign_reliability(args: argparse.Namespace) -> int:
    """``campaign reliability``: fault-saturation sweep + availability
    aggregates in one command.

    Resolves a :class:`~repro.campaign.reliability.ReliabilitySweepSpec`
    through :func:`spec_from_args`, runs its campaign grid through the
    shared executor (unless ``--report-only``), then prints the
    availability curves, saturation/MTTF summary and resilience-per-
    switch tables.
    """
    from repro.campaign import (
        dumps_reliability,
        dumps_sweep,
        expand_scenarios,
        load_records,
    )

    spec, base_dir = spec_from_args(args)
    if args.save_spec:
        Path(args.save_spec).write_text(
            dumps_sweep(spec, indent=2), encoding="utf-8"
        )
        _log.info("wrote reliability sweep spec to %s", args.save_spec)
    campaign = spec.to_campaign(base_dir=base_dir)
    _log.info(
        "reliability sweep %s: %d network(s) x %d fault count(s) x %d "
        "draw(s) = %d scenarios",
        spec.digest, len(spec.networks), len(campaign.faults),
        spec.draws, campaign.n_scenarios,
    )
    if not args.report_only:
        _execute(campaign, args, base_dir, what="sweep")
    hashes = {
        s.digest for s in expand_scenarios(campaign, base_dir=base_dir)
    }
    records = load_records(args.store, hashes=hashes)
    if not records:
        print(f"no records of this sweep in {args.store}")
        return 1
    report = _print_reliability(
        records, spec.threshold, spec.baseline_label(base_dir=base_dir)
    )
    if args.json:
        Path(args.json).write_text(
            dumps_reliability(report, indent=2), encoding="utf-8"
        )
        print(f"\nwrote reliability report to {args.json}")
    return 0


def _command(subs, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Declare subcommand ``name`` and bind its ``handler``."""
    sub = subs.add_parser(name, **kwargs)
    sub.set_defaults(handler=handler)
    return sub


def _add_store_arg(sub: argparse.ArgumentParser, text: str) -> None:
    sub.add_argument("--store", required=True, metavar="PATH", help=text)


def _add_threshold_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--threshold", type=float, default=0.99, metavar="A",
        help="availability level defining the saturation point "
        "(default: 0.99)",
    )


def _add_load_args(sub: argparse.ArgumentParser, *, rate: float) -> None:
    """Single-point ``--traffic`` / ``--rate`` (``simulate``, sweeps)."""
    sub.add_argument(
        "--traffic", choices=sorted(TRAFFIC_PATTERNS), default="uniform",
        help="traffic pattern (default: uniform)",
    )
    sub.add_argument(
        "--rate", type=float, default=rate,
        help=f"injection rate in (0, 1] (default: {rate})",
    )


def _add_policy_args(
    sub: argparse.ArgumentParser, *, grid: bool = True
) -> None:
    """Simulation-policy flags of ``simulate`` and the grid commands;
    ``grid`` adds ``--fault-seed-base``, which only sweeps use."""
    sub.add_argument(
        "--cycles", type=int, default=200, help="injection cycles"
    )
    sub.add_argument(
        "--policy", choices=("drop", "block"), default="drop",
        help="contention policy (default: drop)",
    )
    sub.add_argument(
        "--drain", action="store_true",
        help="keep cycling after injection stops until the network empties",
    )
    sub.add_argument(
        "--hotspot-fraction", type=float, default=0.25,
        help="hot traffic fraction for hotspot traffic",
    )
    if grid:
        sub.add_argument(
            "--fault-seed-base", type=int, default=0,
            help="offset of the derived fault-seed streams",
        )


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    """``--backend`` and ``--trace`` of every command that simulates."""
    sub.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="auto",
        help="simulation kernel backend: auto prefers the fused numba "
        "JIT loop when installed (pip install -e .[fast]) and falls "
        "back to the NumPy kernels (default: auto)",
    )
    # Also accepted after the subcommand; SUPPRESS keeps a value given
    # in the global position from being overwritten by a default here.
    sub.add_argument(
        "--trace", metavar="PATH", default=argparse.SUPPRESS,
        help="stream a repro-trace JSONL telemetry file for this run "
        "(campaign worker spans included; also the REPRO_TRACE "
        "environment variable)",
    )


def _add_spec_args(sub: argparse.ArgumentParser) -> None:
    """The campaign-grid axis flags of ``campaign run`` / ``status``."""
    sub.add_argument(
        "--spec", metavar="PATH",
        help="repro-campaign JSON spec (overrides the axis flags)",
    )
    sub.add_argument(
        "--topologies", nargs="+", metavar="T",
        help="registry names and/or repro-midigraph .json paths",
    )
    sub.add_argument(
        "--stages", nargs="+", type=int, default=[4], metavar="N",
        help="network orders for catalog topologies (default: 4)",
    )
    sub.add_argument(
        "--traffic", nargs="+", default=["uniform"],
        choices=sorted(TRAFFIC_PATTERNS), metavar="P",
        help="traffic patterns (default: uniform)",
    )
    sub.add_argument(
        "--rates", nargs="+", type=float, default=[1.0], metavar="R",
        help="injection rates in (0, 1] (default: 1.0)",
    )
    sub.add_argument(
        "--fault-cells", nargs="+", type=int, default=[0], metavar="K",
        help="dead-switch counts (default: 0)",
    )
    sub.add_argument(
        "--fault-links", nargs="+", type=int, default=[0], metavar="K",
        help="severed-link counts, crossed with --fault-cells "
        "(default: 0)",
    )
    sub.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="S",
        help="simulation seeds (default: 0)",
    )
    _add_policy_args(sub)


def _add_exec_args(sub: argparse.ArgumentParser) -> None:
    """The execution flags of ``campaign run`` and ``reliability``, read
    by :func:`_execute` (``--save-spec`` by each handler)."""
    _add_store_arg(sub, "append-only JSONL result store")
    sub.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: 1 = inline)",
    )
    sub.add_argument(
        "--batch", type=int, default=16,
        help="max scenarios fused per simulate_batch call; same-topology "
        "groups run as one vectorized pass (default: 16, 1 = per-scenario "
        "dispatch)",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help="skip scenarios already in the store (crash recovery)",
    )
    _add_run_args(sub)
    sub.add_argument(
        "--save-spec", metavar="PATH",
        help="also write the resolved spec as JSON (repro-campaign for "
        "run, repro-reliability-sweep for reliability)",
    )
    sub.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock limit per dispatched group; a worker past it is "
        "killed and the group retried (default: none)",
    )
    sub.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="immediate re-runs of a scenario whose worker crashed or "
        "hung; a raise is never re-run (default: 2)",
    )
    sub.add_argument(
        "--on-error", choices=("abort", "quarantine"), default="quarantine",
        help="when a scenario fails for good (a raise, or a crash or "
        "hang past --retries): abort the sweep, or quarantine the "
        "scenario and keep going (default: quarantine)",
    )
    sub.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="seconds between atomic progress heartbeats written next "
        "to the store for `campaign watch` (0 disables; default: "
        "REPRO_CAMPAIGN_HEARTBEAT or 1.0)",
    )


def _build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` parser; every leaf binds ``handler``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Baseline-equivalence toolkit "
        "(Bermond & Fourneau, ICPP'88).",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, dest="verbosity",
        help="more output (DEBUG-level logging; also REPRO_LOG_LEVEL)",
    )
    parser.add_argument(
        "-q", action="count", default=0, dest="log_quiet",
        help="less output (WARNING-level logging: errors only)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="stream a repro-trace JSONL span/metrics/manifest file for "
        "this invocation (also the REPRO_TRACE environment variable)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text, show in (
        ("classify", "full structural report of a network",
         lambda net: classify(net).summary()),
        ("render", "ASCII wire diagram", render_wire_diagram),
    ):
        p_net = subs.add_parser(name, help=text)
        _add_network_args(p_net, CLASSICAL_NETWORKS)
        p_net.set_defaults(
            handler=partial(_show_network, show=show, error=p_net.error)
        )

    p_export = _command(
        subs, "export", _export, help="write a classical network as JSON"
    )
    p_export.add_argument("name", choices=sorted(CLASSICAL_NETWORKS))
    p_export.add_argument("n", type=int)
    p_export.add_argument("output", help="output JSON path")

    p_exp = _command(
        subs, "experiments", _experiments,
        help="run the paper-reproduction experiments",
    )
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default all)")

    p_sim = _command(
        subs, "simulate", _run_simulate,
        help="cycle-based traffic simulation (repro.sim)",
    )
    _add_network_args(p_sim, NETWORK_CATALOG)
    p_sim.add_argument(
        "--network", metavar="NAME_OR_PATH",
        help="any registry entry or repro-midigraph JSON path "
        "(alternative to the positional name)",
    )
    p_sim.add_argument(
        "--stages", type=int, default=None, metavar="N",
        help="network order when using --network (alternative to the "
        "positional n)",
    )
    p_sim.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="extra registry parameters for --network "
        "(e.g. --param k=3 for omega_k); repeatable",
    )
    p_sim.add_argument(
        "--scenario", metavar="PATH",
        help="run a saved repro-scenario JSON spec (overrides the "
        "network/traffic/fault flags)",
    )
    p_sim.add_argument(
        "--save-scenario", metavar="PATH",
        help="also write the resolved spec as repro-scenario JSON",
    )
    _add_load_args(p_sim, rate=1.0)
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_policy_args(p_sim, grid=False)
    p_sim.add_argument(
        "--faults",
        type=int,
        default=0,
        metavar="K",
        help="inject K random dead switches (terminal stages spared)",
    )
    p_sim.add_argument(
        "--fault-links",
        type=int,
        default=0,
        metavar="K",
        help="sever K random inter-stage links",
    )
    p_sim.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="separate seed for fault sampling (default: --seed)",
    )
    _add_run_args(p_sim)
    p_sim.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON"
    )

    p_camp = subs.add_parser(
        "campaign",
        help="parallel scenario sweeps with a persistent store "
        "(repro.campaign)",
    )
    camp_subs = p_camp.add_subparsers(dest="campaign_command", required=True)

    c_run = _command(
        camp_subs, "run", _run_campaign_cmd,
        help="expand the grid and run it over a worker pool",
    )
    _add_spec_args(c_run)
    _add_exec_args(c_run)
    c_run.add_argument(
        "--quiet", action="store_true", help="suppress per-scenario progress"
    )

    c_watch = _command(
        camp_subs, "watch", _campaign_watch,
        help="tail a running campaign's store + heartbeat from another "
        "process and render live progress",
    )
    _add_store_arg(c_watch, "result store of the run to watch")
    c_watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval (default: 0.5)",
    )
    c_watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up after this many seconds (default: wait forever)",
    )
    c_watch.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (scripting/CI mode)",
    )

    c_status = _command(
        camp_subs, "status", _campaign_status,
        help="count stored vs. missing scenarios of a grid",
    )
    _add_spec_args(c_status)
    _add_store_arg(c_status, "result store to check")
    c_status.add_argument(
        "--metrics", metavar="TRACE",
        help="also print per-phase timings and aggregated metrics from a "
        "repro-trace file (written by campaign run --trace)",
    )

    c_report = _command(
        camp_subs, "report", _campaign_report,
        help="aggregate comparison table + equivalence head-to-head",
    )
    _add_store_arg(c_report, "result store to read")
    c_report.add_argument(
        "--spec", metavar="PATH",
        help="restrict to one campaign's scenarios (repro-campaign JSON)",
    )
    c_report.add_argument(
        "--json", metavar="PATH",
        help="write the canonical aggregate report as JSON",
    )
    c_report.add_argument(
        "--reliability", action="store_true",
        help="also print availability curves, saturation/MTTF and "
        "resilience-per-switch tables (repro.campaign.reliability)",
    )
    _add_threshold_arg(c_report)
    c_report.add_argument(
        "--baseline", metavar="LABEL", default=None,
        help="resilience baseline topology label (default: the smallest "
        "cell budget)",
    )

    c_rel = _command(
        camp_subs, "reliability", _campaign_reliability,
        help="fault-saturation sweep: run a (network x fault count) grid "
        "to saturation and report availability curves, saturation, "
        "MTTF and resilience per switch",
    )
    c_rel.add_argument(
        "--spec", metavar="PATH",
        help="repro-reliability-sweep JSON spec (overrides the axis flags)",
    )
    c_rel.add_argument(
        "--networks", nargs="+", metavar="T",
        default=["omega", "extra_stage_omega"],
        help="topologies to compare; the first is the resilience "
        "baseline (default: omega extra_stage_omega)",
    )
    c_rel.add_argument(
        "--stages", type=int, default=4, metavar="N",
        help="network order shared by every catalog topology (default: 4)",
    )
    _add_load_args(c_rel, rate=0.9)
    c_rel.add_argument(
        "--max-faults", type=int, default=None, metavar="K",
        help="largest dead-cell count (default: sweep to saturation — "
        "the smallest interior-cell pool among the networks)",
    )
    c_rel.add_argument(
        "--draws", type=int, default=8, metavar="N",
        help="independent fault samples per count (default: 8)",
    )
    _add_policy_args(c_rel)
    _add_threshold_arg(c_rel)
    _add_exec_args(c_rel)
    c_rel.add_argument(
        "--report-only", action="store_true",
        help="skip the run; aggregate whatever the store already holds",
    )
    c_rel.add_argument(
        "--json", metavar="PATH",
        help="write the canonical reliability report as JSON",
    )

    c_quar = _command(
        camp_subs, "quarantine", _campaign_quarantine,
        help="list, inspect or requeue scenarios that exhausted their "
        "retries (the .quarantine.jsonl sidecar)",
    )
    _add_store_arg(c_quar, "result store whose quarantine sidecar to read")
    c_quar.add_argument(
        "--show", metavar="HASH",
        help="print one failure in full, remote traceback included "
        "(hash prefix match)",
    )
    c_quar.add_argument(
        "--requeue", nargs="+", metavar="HASH", default=None,
        help="drop these failures from the sidecar so --resume re-runs "
        "them (hash prefix match)",
    )
    c_quar.add_argument(
        "--requeue-all", action="store_true",
        help="requeue every quarantined scenario",
    )

    c_store = camp_subs.add_parser(
        "store",
        help="record-level store integrity: verify / repair",
    )
    store_subs = c_store.add_subparsers(dest="store_command", required=True)
    for name, handler, text in (
        ("verify", _store_verify,
         "check every record line (JSON shape + crc checksum)"),
        ("repair", _store_repair, "drop corrupt record lines to a .bad "
         "sidecar and rewrite the store atomically"),
    ):
        s = _command(store_subs, name, handler, help=text)
        _add_store_arg(s, "result store to check")
        if name == "verify":
            s.add_argument(
                "--sidecars", action="store_true",
                help="also audit the quarantine sidecar (JSON shape + "
                "failure schema, torn tail tolerated) and the heartbeat "
                "file",
            )

    p_obs = subs.add_parser(
        "obs",
        help="trace analytics + perf baselines: summary, tree, "
        "critical-path, flame, diff, bench-compare (repro.obs.analyze)",
    )
    obs_subs = p_obs.add_subparsers(dest="obs_command", required=True)

    o_summary = _command(
        obs_subs, "summary", _obs_summary,
        help="per-phase stats, worker utilization and counters of a trace",
    )
    o_summary.add_argument("trace_file", help="repro-trace JSONL file")

    o_tree = _command(
        obs_subs, "tree", _obs_tree,
        help="render the span forest as an indented tree",
    )
    o_tree.add_argument("trace_file", help="repro-trace JSONL file")
    o_tree.add_argument(
        "--depth", type=int, default=None, metavar="N",
        help="maximum tree depth (default: unlimited)",
    )
    o_tree.add_argument(
        "--limit", type=int, default=16, metavar="N",
        help="children shown per node before collapsing (default: 16)",
    )

    o_crit = _command(
        obs_subs, "critical-path", _obs_critical_path,
        help="the dominant dispatch→group→kernel chain, across pids",
    )
    o_crit.add_argument("trace_file", help="repro-trace JSONL file")

    o_flame = _command(
        obs_subs, "flame", _obs_flame,
        help="convert a trace to Chrome tracing / Perfetto JSON",
    )
    o_flame.add_argument("trace_file", help="repro-trace JSONL file")
    o_flame.add_argument(
        "--out", metavar="PATH",
        help="output path (default: <trace>.chrome.json)",
    )

    o_diff = _command(
        obs_subs, "diff", _obs_diff,
        help="per-phase deltas between two traces (B vs A)",
    )
    o_diff.add_argument("trace_a", help="baseline repro-trace file (A)")
    o_diff.add_argument("trace_b", help="candidate repro-trace file (B)")

    o_bench = _command(
        obs_subs, "bench-compare", _bench_compare,
        help="grade pytest-benchmark output (bench-out/*.json) against "
        "benchmarks/baselines.json (warn-level perf gate)",
    )
    o_bench.add_argument(
        "bench_files", nargs="+", metavar="BENCH_JSON",
        help="pytest-benchmark JSON files (CI's bench-out/*.json artifacts)",
    )
    o_bench.add_argument(
        "--baseline", default="benchmarks/baselines.json", metavar="PATH",
        help="committed baseline document "
        "(default: benchmarks/baselines.json)",
    )
    o_bench.add_argument(
        "--tolerance", type=float,
        default=obs_baseline.DEFAULT_TOLERANCE, metavar="FRACTION",
        help="relative slack before a move counts as a regression "
        "(default: %(default)s)",
    )
    o_bench.add_argument(
        "--update", action="store_true",
        help="record the current numbers into the baseline instead of "
        "comparing",
    )
    o_bench.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on regressions (default: warn only)",
    )

    p_lint = _command(
        subs, "lint", _lint,
        help="run the stdlib-ast invariant checker (RPR001..RPR006)",
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint "
        "(default: the installed repro source tree)",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="also fail on warnings and unjustified suppressions",
    )
    p_lint.add_argument(
        "--rule", action="append", dest="rules", metavar="RPRNNN",
        help="run only this rule id (repeatable)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="fmt", help="output format (default: text)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status (a
    :class:`~repro.core.errors.ReproError` exits as ``error: …``)."""
    args = _build_parser().parse_args(argv)
    configure(verbosity=args.verbosity, quiet=args.log_quiet)
    trace_path = (
        getattr(args, "trace", None)
        or os.environ.get(obs.TRACE_ENV, "").strip()
    )
    try:
        if trace_path:
            _log.debug("tracing to %s", trace_path)
            with obs.tracing(trace_path):
                return args.handler(args)
        return args.handler(args)
    except ReproError as err:
        raise SystemExit(f"error: {err}") from err


if __name__ == "__main__":
    sys.exit(main())
