"""Fan a campaign's scenarios out over a ``multiprocessing`` worker pool.

The parent process never ships network objects: a worker receives frozen
:class:`~repro.spec.scenario.ScenarioSpec` values (a few hundred bytes
each), resolves them through the registries — rebuilding the topology
from the catalog or the referenced ``repro-midigraph`` file, the traffic
pattern and the fault sample — runs the simulator and hands the store
records back.  The parent streams every finished record straight into
the :class:`~repro.campaign.store.ResultStore`, so progress survives a
kill at any point and ``resume=True`` re-runs only the missing
scenarios.  A record's ``scenario`` is the spec's one wire form,
:meth:`~repro.spec.scenario.ScenarioSpec.to_spec`, so a stored run
replays alone as ``simulate(ScenarioSpec.from_spec(record["scenario"]))``.

Two layers of batching and caching keep the sweep hot:

* **Scenario groups.**  Pending scenarios are packed by
  :func:`~repro.sim.batch.pack_slabs`: grouped by
  :meth:`~repro.spec.scenario.ScenarioSpec.group_key` — same topology,
  cycles, policy and drain — and, within a group, by fault sample, whole
  samples at a time, into tasks of at most ``batch`` scenarios and
  :data:`~repro.sim.batch.SLAB_SAMPLES` (16) samples, so a reliability
  sweep's one-scenario samples fill whole batches.  Only the run's first
  task is cut shorter, after its first :data:`FIRST_TASK` (4) scenarios
  under every policy, so the first result is stored after a small
  slab's work; the rest of that slab is the second task.  Each task
  runs as one
  :func:`~repro.sim.batch.simulate_batch` call: one compilation of the
  slab (its topology and all its samples), one pass over the cycle
  loop, bit-identical per-scenario reports.  ``batch=1`` recovers the
  per-scenario dispatch exactly.
* **Run-owned caches, warm workers.**  A run owns its compiled-network
  LRU (:class:`repro.sim.compiled.CompileCache`; one inline, or one per
  pool worker) of :data:`CACHE_SLABS` (4) entries, so at most 64 fault
  samples.  The cache carries the run's
  :class:`~repro.sim.traffic.ScheduleStore`, so each (traffic, seed)
  schedule is drawn once per run or worker and reused on every
  topology and fault sample that runs it.  Pool workers live for the
  whole sweep; with the ``numba`` backend the
  initializer pre-compiles the fused JIT loop
  (:func:`repro.sim.kernels.warm_jit`).  Network resolution is
  additionally memoized per process by catalog entry / file digest.

**One group executor.**  ``workers=1`` runs inline in the parent (no
pool, easiest to debug and to interrupt deterministically in tests);
``workers>1`` dispatches through the fault-tolerant supervisor
(:mod:`repro.campaign.supervisor`).  Both call the same
:func:`_execute_group` — chaos injection, backend choice, the
``group`` span and its telemetry are written once — and both hand the
parent the same ``(records, telemetry)`` pair; pool workers pickle it
through their result pipe.  Completion order is
nondeterministic, results are not: every scenario's report is a pure
function of its spec.

**One ledger.**  Every run keeps one
:class:`~repro.campaign.heartbeat.HeartbeatWriter` and folds each
finished group's telemetry into it once; the summary's
``compile_cache``, ``traffic_cache`` and ``telemetry.workers`` and the
heartbeat read its rows.  A run with nothing left to do — a resume of a
complete store — takes the same path with no tasks: it runs inline,
starts no worker process and returns the same summary.

**Fault tolerance.**  Both paths route failures through the supervisor's
recovery policy: a failed scenario group is bisected to isolate the
poison; a raising singleton is terminal at once (a report is a pure
function of its spec, so it would raise again), except that a
numba-backend failure is run once more on numpy; terminal failures
land — with their full remote traceback — in the
``repro-campaign-quarantine`` sidecar next to the store
(``on_error="quarantine"``, the default) or abort the sweep as a
:class:`~repro.campaign.errors.RemoteTaskError` (``on_error="abort"``).
With ``workers>1`` the supervisor additionally enforces per-task
wall-clock timeouts (``task_timeout``), SIGKILLs hung workers and
respawns crashed ones, and re-runs a crashed or hung singleton at once
up to ``retries`` times, so a segfault or a stuck JIT compile costs
one task attempt, not the campaign.  Quarantined scenarios are skipped
on ``resume`` and re-run after ``python -m repro campaign quarantine
--requeue`` — the way to re-run a raise the environment caused, such
as a ``MemoryError``.  The crash-safety oracle is unchanged: once every
non-poison scenario completes, store bytes and aggregates are identical
to a fault-free run.  A deterministic chaos harness
(:mod:`repro.campaign.chaos`, ``REPRO_CHAOS``) injects worker
crash/hang/slow faults and poison raises inside workers to test all of
this.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable

from repro.core.errors import ReproError
from repro.campaign import supervisor as sup
from repro.campaign.chaos import ChaosSpec, chaos_from_env, parse_chaos
from repro.campaign.errors import (
    QuarantineStore,
    RemoteTaskError,
    quarantine_path,
)
from repro.campaign.heartbeat import (
    HeartbeatWriter,
    default_interval as hb_default_interval,
)
from repro.campaign.spec import CampaignSpec, expand_scenarios
from repro.campaign.store import ResultStore
from repro.obs import trace as obs
from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import metrics
from repro.sim.batch import SLAB_SAMPLES, _simulate_spec_batch, pack_slabs
from repro.sim.compiled import CompileCache
from repro.sim.kernels import resolve_backend, warm_jit
from repro.sim.metrics import SimReport
from repro.spec.scenario import ScenarioSpec

__all__ = ["run_campaign"]

_log = get_logger("campaign")

#: Bound on a run's first task, so the first result is stored after a
#: small slab's work, not a full one's.  Under every policy the first
#: slab is cut after its first 4 scenarios, which hold at most 4 of the
#: slab's up to :data:`~repro.sim.batch.SLAB_SAMPLES` (16) fault
#: samples.  A ``drop`` slab costs in proportion to its scenarios (its
#: kernel chunks by slots); a 4-scenario ``block`` slab costs about half
#: a 16-scenario one, as its per-cycle numpy calls dominate at small B.
FIRST_TASK = 4

#: Entries of each run's compile cache: a slab holds up to
#: :data:`~repro.sim.batch.SLAB_SAMPLES` (16) samples, so a cache holds
#: at most 64.  An LRU never evicts while it can hold every distinct key,
#: so a run with fewer distinct slabs never notices the bound.
CACHE_SLABS = 64 // SLAB_SAMPLES


def _record(spec: ScenarioSpec, report: SimReport) -> dict:
    return {
        "hash": spec.digest,
        "scenario": spec.to_spec(),
        "report": report.to_dict(),
    }


def _pack_tasks(pending: list, batch: int) -> list[list[ScenarioSpec]]:
    """The run's group tasks: :func:`~repro.sim.batch.pack_slabs`, with
    the first slab cut after its first :data:`FIRST_TASK` scenarios
    (so at most :data:`FIRST_TASK` fault samples), under every policy,
    and its rest run as the second task.

    Only a task boundary moves: the tasks, concatenated, list the
    scenarios in the order the slabs do, so stores do not change.
    """
    slabs = pack_slabs(pending, batch)
    if slabs and len(slabs[0]) > FIRST_TASK:
        head = slabs[0]
        slabs[:1] = [head[:FIRST_TASK], head[FIRST_TASK:]]
    return [[pending[i] for i in slab] for slab in slabs]


def _execute_group(
    specs,
    attempt: int,
    backend_override: str | None,
    backend: str | None,
    dispatch_ts: float | None,
    chaos: ChaosSpec | None,
    cache: CompileCache,
) -> tuple:
    """Run one group task → ``(records, telemetry)``.

    The one executor behind both run paths: pool workers call it from
    :func:`repro.campaign.supervisor._worker_main`, inline runs from
    :func:`repro.campaign.supervisor.run_inline`.  Chaos fires first
    (a crash or hang never holds a half-built result), then the group
    runs on the task's ``backend_override`` (the supervisor's degrade
    step) or else the sweep's ``backend`` request — an execution
    choice, so the records are unchanged — compiling through the run's
    ``cache``.  ``telemetry`` holds the pid, busy seconds and scenario
    count, and the group's compile-cache and schedule-store hits and
    misses, which the parent folds into the run's ledger
    (:meth:`repro.campaign.heartbeat.HeartbeatWriter.note_group`).  Span
    and metric events go to this process's own tracer; shipping them
    across a process boundary is the worker loop's job.
    """
    if chaos:
        chaos.apply(
            [s.digest for s in specs], attempt, backend=backend_override
        )
    t0 = time.perf_counter()
    if obs.enabled() and dispatch_ts is not None:
        metrics().histogram("campaign.queue_wait_s").observe(
            # Queue-wait telemetry spans two processes, so only the
            # shared wall clock can measure it; the value feeds a
            # histogram, never a result or a digest.
            # repro: noqa[RPR003] — cross-process wall-clock telemetry
            max(0.0, time.time() - dispatch_ts)
        )
    hits, misses = cache.hits, cache.misses
    drawn, reused = cache.schedules.misses, cache.schedules.hits
    with obs.span("group", scenarios=len(specs)):
        reports = _simulate_spec_batch(
            list(specs), resolve_backend(backend_override or backend), cache
        )
    busy_s = time.perf_counter() - t0
    if obs.enabled():
        _note_group(len(specs), busy_s)
    records = [_record(s, r) for s, r in zip(specs, reports)]
    tele = {
        "pid": os.getpid(), "busy_s": busy_s, "scenarios": len(specs),
        "hits": cache.hits - hits, "misses": cache.misses - misses,
        "traffic_hits": cache.schedules.hits - reused,
        "traffic_misses": cache.schedules.misses - drawn,
    }
    return records, tele


def _note_group(n_scenarios: int, busy_s: float) -> None:
    """Fold one finished group into the process's metric registry."""
    m = metrics()
    m.counter("campaign.groups").add()
    m.counter("campaign.scenarios").add(n_scenarios)
    m.histogram("campaign.group_busy_s").observe(busy_s)


def _worker_init(backend: str | None, traced: bool = False) -> tuple:
    """Pool initializer: install telemetry, build the cache, pre-pay JIT.

    The tracer (when the parent traces) comes first so the initializer's
    own ``warm_jit`` span is captured; it replaces any tracer inherited
    across ``fork`` — see :func:`repro.obs.trace.reset`.  Returns the
    sweep's ``backend`` request and this worker's own
    ``CompileCache(CACHE_SLABS)``, which every group of this worker runs
    on (see :func:`_execute_group`).
    """
    if traced:
        obs.reset()
        obs.start(obs.Tracer())
    if resolve_backend(backend) == "numba":
        warm_jit()
    return backend, CompileCache(CACHE_SLABS)


def run_campaign(
    spec: CampaignSpec,
    store_path: str | Path,
    *,
    workers: int = 1,
    batch: int = 16,
    resume: bool = False,
    base_dir: str | Path | None = None,
    progress: Callable[[dict, int, int], None] | None = None,
    backend: str | None = None,
    heartbeat: float | None = None,
    task_timeout: float | None = None,
    retries: int = 2,
    on_error: str = "quarantine",
    chaos: ChaosSpec | str | None = None,
) -> dict:
    """Run (or resume) a full campaign sweep into a result store.

    Parameters
    ----------
    spec:
        The declarative grid to expand.
    store_path:
        The JSONL result store; must not already hold records unless
        ``resume=True``.
    workers:
        Pool size; ``1`` runs inline in the calling process.  Pool
        workers inherit plugin-registered networks/traffic patterns on
        ``fork`` platforms (Linux); under the ``spawn`` start method
        (macOS/Windows default) workers re-import your main module, so
        keep ``@register_network``/``@register_traffic`` decorators at
        module top level — or use ``workers=1``.
    batch:
        Maximum scenarios fused into one ``simulate_batch`` call
        (grouped by topology, cycles, policy and drain; at most
        :data:`~repro.sim.batch.SLAB_SAMPLES` (16) fault samples per
        call; the run's first call holds at most :data:`FIRST_TASK` (4)
        scenarios, under every policy).  ``1``
        disables batching and dispatches per
        scenario.  How scenarios are packed never changes a report or
        the store's bytes.
    resume:
        Skip scenarios whose digests the store already holds — the
        crash-recovery path, a no-op when the store is complete.
    base_dir:
        Anchor for relative file-topology paths (see
        :func:`~repro.campaign.spec.expand_scenarios`).
    progress:
        Optional callback ``(record, n_done, n_total)`` invoked after
        each scenario is stored; exceptions it raises abort the run
        (already-stored records stay on disk).
    backend:
        Kernel backend every group runs on
        (``"auto"``/``"numpy"``/``"numba"``; ``None`` means ``"auto"``),
        resolved once before any work.  An execution choice only —
        digests, stores and reports are identical across backends.
    heartbeat:
        Seconds between atomic-rename progress heartbeats written next
        to the store (``<stem>.heartbeat.json`` — see
        :mod:`repro.campaign.heartbeat`); ``0`` (or negative) disables
        them.  Default (``None``): the ``REPRO_CAMPAIGN_HEARTBEAT``
        environment variable, else 1 second.  Pure telemetry, exactly
        like tracing: the store is byte-identical with heartbeats on
        or off, and ``python -m repro campaign watch`` tails the file
        from any other process.
    task_timeout:
        Wall-clock seconds one group task may run before its worker is
        SIGKILL-ed and the task retried (``None`` disables hang
        detection).  Enforced with ``workers > 1``; inline runs cannot
        preempt themselves.
    retries:
        Transient-failure budget per scenario: a singleton task whose
        worker crashed or hung is re-run at once up to this many extra
        times before degradation/quarantine.  A raise is never re-run:
        it is degraded (numba sweeps) or quarantined as soon as
        bisection has isolated it.
    on_error:
        ``"quarantine"`` (default) records terminal failures — full
        remote traceback included — in the
        ``repro-campaign-quarantine`` sidecar next to the store and
        finishes the sweep; ``"abort"`` raises
        :class:`~repro.campaign.errors.RemoteTaskError` instead.
    chaos:
        A :class:`~repro.campaign.chaos.ChaosSpec` (or its spec
        string) injecting deterministic crash/hang/slow faults and
        poison raises inside workers — the test harness for everything above.
        Default (``None``): parsed from the ``REPRO_CHAOS``
        environment variable, which is off by default.  An execution
        hint: chaos never enters specs, digests or store bytes.

    Returns
    -------
    dict
        ``{"total": ..., "skipped": ..., "ran": ..., "store": ...,
        "compile_cache": {"hits": ..., "misses": ...},
        "traffic_cache": {"hits": ..., "misses": ...}}`` — the sweep
        accounting, for logs and tests, plus
        ``"quarantined"`` (terminal failures this run),
        ``"quarantined_skipped"`` (previously quarantined scenarios
        skipped on resume), ``"quarantine"`` (the sidecar path) and a
        ``"faults"`` dict of supervisor event counters
        (retries/bisects/degraded/quarantined/timeouts/crashes/
        respawns).  The compile-cache and schedule-store
        (``traffic_cache``) counters are this run's own, summed over its
        caches (one inline, or one per worker).  When a :mod:`repro.obs` tracer is
        active, a ``"telemetry"`` key is added: the run's wall time, the
        parent-merged metrics snapshot and a per-worker series
        (groups/scenarios/busy seconds/utilization); the trace stream
        additionally receives every worker's spans, a campaign
        :class:`~repro.obs.manifest.RunManifest` and the final metrics
        snapshot.  Telemetry never changes the store: traced and
        untraced sweeps produce identical records.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if batch < 1:
        raise ReproError(f"batch must be >= 1, got {batch}")
    resolved = resolve_backend(backend)  # fail fast, before any work
    scenarios = expand_scenarios(spec, base_dir=base_dir)
    if isinstance(chaos, str):
        chaos = parse_chaos(chaos)
    elif chaos is None:
        chaos = chaos_from_env()
    # Degradation target: retry once on the reference kernels when the
    # sweep runs the JIT backend.  A chaos spec with poison_numba
    # entries simulates exactly that failure mode, so it forces the
    # path on for numpy-only installs (where it is otherwise moot).
    degrade_backend = None
    if resolved == "numba" or (chaos is not None and chaos.poison_numba):
        degrade_backend = "numpy"
    store = ResultStore(store_path)
    qstore = QuarantineStore(quarantine_path(store.path))
    done: set[str] = set()
    if store.exists() and len(store) > 0:
        if not resume:
            raise ReproError(
                f"store {store.path} already holds results; pass "
                "resume=True to continue it or choose a fresh path"
            )
        done = store.hashes()
    quarantined_prior: set[str] = set()
    if resume and qstore.exists():
        quarantined_prior = qstore.hashes() - done
    pending = [
        s for s in scenarios
        if s.digest not in done and s.digest not in quarantined_prior
    ]
    skipped = sum(1 for s in scenarios if s.digest in done)
    quarantined_skipped = len(scenarios) - len(pending) - skipped
    total = len(scenarios)
    n_done = skipped
    new_quarantined = 0
    stored_hashes = set(done)
    hb_interval = (
        hb_default_interval() if heartbeat is None else heartbeat
    )
    # Validate the fault-tolerance knobs up front (fail before work).
    sup_cfg = sup.SupervisorConfig(
        task_timeout=task_timeout,
        retries=retries,
        on_error=on_error,
        degrade_backend=degrade_backend,
    )

    def _store(records: list[dict]) -> None:
        # Attempt-independent results: a retried/bisected task may
        # recompute a scenario another attempt already delivered.
        fresh = []
        for record in records:
            if record["hash"] not in stored_hashes:
                stored_hashes.add(record["hash"])
                fresh.append(record)

        def written(i: int) -> None:
            nonlocal n_done
            n_done += 1
            if progress is not None:
                progress(fresh[i], n_done, total)
            ledger.beat(n_done)

        rows = [(r["hash"], r["scenario"], r["report"]) for r in fresh]
        store.extend(rows, written)

    def _on_failure(failure) -> None:
        nonlocal new_quarantined
        if on_error == "abort":
            first = (
                failure.message.splitlines()[0] if failure.message else ""
            )
            raise RemoteTaskError(
                f"scenario {failure.hash} failed after "
                f"{failure.attempts} attempt(s) "
                f"[{failure.kind}: {failure.error_type}: {first}]",
                failure.traceback,
            )
        qstore.append(failure)
        new_quarantined += 1

    tasks = _pack_tasks(pending, batch)
    # The run's one ledger: every finished group is folded into it once,
    # and the heartbeat, the `campaign watch` line and the summary's
    # cache and per-worker figures all read it.  It writes heartbeat
    # documents only when heartbeats are on.
    ledger = HeartbeatWriter(
        store.path if hb_interval > 0 else None, total=total,
        skipped=skipped, workers=workers, batch=batch, backend=resolved,
        interval=hb_interval, task_timeout=task_timeout,
    )
    ledger.beat(n_done, force=True)

    # Telemetry (off unless a tracer is active): the whole dispatch is
    # one `campaign` span.  Inline groups trace straight into the
    # parent's tracer; pool workers ship their span events and metric
    # snapshots back piggybacked on the result message, and the parent
    # folds them into its own stream.
    traced = obs.enabled()

    def _on_result(task, records, tele) -> None:
        ledger.note_group(tele)
        if tele.get("events"):
            tr = obs.active()
            if tr is not None:
                tr.ingest(tele["events"])
        if tele.get("metrics") is not None:
            metrics().merge(tele["metrics"])
        with obs.span("store", scenarios=len(records)):
            _store(records)

    _log.debug(
        "dispatching %d group task(s) (%d scenario(s)) over %d worker(s), "
        "backend=%s",
        len(tasks), len(pending), workers, resolved,
    )
    t_run0 = time.perf_counter()
    with obs.span(
        "campaign", total=total, skipped=skipped,
        workers=workers, batch=batch, backend=resolved,
    ) as root:
        # A run with nothing left to do (a complete resume) runs inline
        # too: it starts no worker process.
        if workers == 1 or not tasks:
            fault_stats = sup.run_inline(
                tasks,
                cfg=sup_cfg,
                backend=backend,
                cache=CompileCache(CACHE_SLABS),
                chaos=chaos,
                on_result=_on_result,
                on_failure=_on_failure,
            )
        else:
            fault_stats = sup.run_supervised(
                tasks,
                workers=workers,
                cfg=sup_cfg,
                backend=backend,
                init_args=(backend, traced),
                chaos=chaos,
                dispatch_ts_factory=(
                    (lambda: time.time()) if traced else (lambda: None)
                ),
                on_result=_on_result,
                on_failure=_on_failure,
                on_dispatch=ledger.note_dispatch,
                on_tick=lambda: ledger.beat(n_done),
            )
    ledger.finish(n_done)
    if new_quarantined:
        _log.warning(
            "%d scenario(s) quarantined -> %s (inspect with "
            "`python -m repro campaign quarantine --store %s`)",
            new_quarantined, qstore.path, store.path,
        )
    summary = {
        "total": total, "skipped": skipped,
        "ran": n_done - skipped,
        "quarantined": new_quarantined,
        "quarantined_skipped": quarantined_skipped,
        "quarantine": str(qstore.path) if qstore.exists() else None,
        "faults": fault_stats,
        "store": str(store.path),
        "compile_cache": ledger.compile_cache,
        "traffic_cache": ledger.traffic_cache,
    }
    if traced:
        wall = time.perf_counter() - t_run0
        summary["telemetry"] = {
            "wall_s": wall,
            "workers": ledger.utilization(wall),
            "metrics": metrics().snapshot(),
        }
        tr = obs.active()
        tr.emit_manifest(
            RunManifest.collect(
                "campaign",
                [s.digest for s in scenarios],
                backend=resolved,
                timings={"total": root.dur},
                workers=workers,
                batch=batch,
                store=str(store.path),
            )
        )
        tr.emit_metrics(metrics().snapshot())
    return summary
