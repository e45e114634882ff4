"""Fault-tolerant supervision of campaign task execution.

A bare ``multiprocessing.Pool`` breaks on one segfaulted worker,
stalls forever on one hung numba compile and aborts on one poison
scenario.  This module runs campaign group tasks under *managed*
dispatch instead — the parent owns each worker process individually,
with a private task queue and result pipe, and keeps the sweep alive
through all three failure modes:

* **Timeouts.**  Every in-flight task carries a wall-clock deadline
  (``task_timeout``).  A worker past its deadline is ``SIGKILL``-ed,
  respawned, and the task re-enters the queue as a ``hang`` failure.
* **Bisection.**  A failed multi-scenario group is split in half and
  both halves re-run, recursing until the failure is isolated to the
  single truly-poisonous scenario — the rest of the group's results
  are recomputed and kept.
* **Re-runs + respawn.**  Only a process death can be transient (the
  OOM killer, an outside signal): a singleton whose worker crashed
  (``crash``) or hung (``hang``) re-runs at once, up to ``retries``
  times.  A raise is terminal once bisection has isolated it: a report
  is a pure function of its spec, so the same spec raises again.  Dead
  workers are respawned immediately; a crashed worker never takes the
  pool down.
* **Degradation.**  A singleton that failed for good is run once more
  on the reference numpy backend (when the sweep runs numba) before
  being declared poison — a JIT-specific failure degrades gracefully
  instead of quarantining a healthy scenario.
* **Quarantine or abort.**  Terminal failures go to the caller's
  ``on_failure`` hook: quarantine mode records them (with the full
  remote traceback) and finishes the sweep; abort mode raises a
  :class:`~repro.campaign.errors.RemoteTaskError`.  A raise caused by
  the environment (a ``MemoryError``, say) is re-run by hand:
  ``campaign quarantine --requeue`` and then ``--resume``.

The engine is deliberately generic: it moves
:class:`~repro.spec.scenario.ScenarioSpec` tuples and the records they
produce, while the runner supplies the one group executor
(:func:`repro.campaign.runner._execute_group`, called by both
:func:`_worker_main` and :func:`run_inline`) and the result/failure
sinks.  Worker deaths and results are events the parent sleeps on
(:func:`multiprocessing.connection.wait` over every result pipe and
process sentinel), not conditions it polls for.  Completion events
count into :data:`repro.obs.metrics` (``campaign.retries``,
``campaign.bisects``, ``campaign.degraded``, ``campaign.quarantined``,
``campaign.timeouts``, ``campaign.crashes``, ``campaign.respawns``)
whenever a tracer is active, and always into the returned stats dict.

Results are attempt-independent (a report is a pure function of its
spec), so the engine dedupes at the scenario-digest level: however many
times a task ran, raced a kill, or overlapped a bisected sibling, every
scenario is delivered to ``on_result`` exactly once.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass, replace as dc_replace

import multiprocessing
from multiprocessing.connection import wait as wait_for_events

from repro.core.errors import ReproError
from repro.campaign.chaos import ChaosSpec
from repro.campaign.errors import TaskFailure, format_remote_traceback
from repro.obs import schema as obs_schema
from repro.obs import trace as obs
from repro.obs.log import get_logger
from repro.obs.metrics import metrics

__all__ = [
    "SupervisorConfig",
    "Task",
    "plan_recovery",
    "run_inline",
    "run_supervised",
]

_log = get_logger("campaign.supervisor")

_ON_ERROR = ("abort", "quarantine")

#: Max tasks in flight per supervised worker (1 running + the rest
#: queued worker-side).  Depth 2 hides the parent's dispatch round-trip
#: without letting one worker hoard the tail of the queue.
PREFETCH = 2

#: Longest sleep of the supervised parent between events, in seconds, so
#: the heartbeat keeps ticking while every worker is busy.
POLL_INTERVAL = 0.2

#: Supervisor bookkeeping keys returned in the stats dict.  Each key is
#: also a declared ``campaign.<event>`` counter, so the set lives in the
#: trace schema — one declaration for emit, consume, and lint.
STAT_KEYS = obs_schema.CAMPAIGN_EVENTS


@dataclass(frozen=True)
class SupervisorConfig:
    """The fault-tolerance policy of one campaign run.

    ``task_timeout=None`` disables hang detection (tasks may run
    forever); ``retries`` bounds the immediate re-runs of a singleton
    whose worker crashed or hung (a raise is never re-run);
    ``degrade_backend`` names the backend for the final pre-quarantine
    attempt (``None`` disables degradation); ``on_error`` picks what
    terminal failures do to the sweep.
    """

    task_timeout: float | None = None
    retries: int = 2
    on_error: str = "quarantine"
    degrade_backend: str | None = None

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR:
            raise ReproError(
                f"on_error must be one of {_ON_ERROR}, "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ReproError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ReproError(
                f"task_timeout must be positive (or None), "
                f"got {self.task_timeout}"
            )


@dataclass
class Task:
    """One schedulable unit: a scenario group plus its run state.

    ``attempt`` counts the earlier runs of a singleton (crash and hang
    re-runs, then the degraded run); ``backend_override`` is set only
    on a degraded task.
    """

    id: int
    specs: tuple
    attempt: int = 0
    backend_override: str | None = None
    last_error: dict | None = None

    def digests(self) -> tuple:
        return tuple(s.digest for s in self.specs)


def _count(stats: dict, event: str, n: int = 1) -> None:
    stats[event] = stats.get(event, 0) + n
    if obs.enabled():
        metrics().counter(obs_schema.campaign_counter(event)).add(n)


def plan_recovery(
    task: Task,
    cfg: SupervisorConfig,
    next_id,
    *,
    backend: str | None = None,
) -> tuple[list[Task], TaskFailure | None, str]:
    """Decide what happens after ``task`` failed.

    Returns ``(replacements, terminal, event)``: zero or more tasks to
    enqueue, an optional terminal :class:`TaskFailure` (exactly when
    ``replacements`` is empty), and the event name for the stats
    counters (``bisects``/``retries``/``degraded``/``quarantined``).
    ``task.last_error`` must hold the failure evidence dict
    (``kind``/``type``/``message``/``traceback``/``worker_pid``).  A
    group is bisected; a degraded singleton is terminal; a ``crash`` or
    ``hang`` re-runs at once while ``attempt < retries``; then the
    singleton degrades once (when ``degrade_backend`` is set) or is
    quarantined.  ``backend`` is the sweep's backend request; a
    terminal failure lists it (or ``"auto"``) and then the task's
    override as the backends it ran on.
    """
    if len(task.specs) > 1:
        # Isolate the poison: re-run both halves from a fresh attempt
        # budget.  Healthy halves complete normally; the failing half
        # recurses down to the guilty singleton.
        mid = len(task.specs) // 2
        halves = [
            Task(id=next_id(), specs=part)
            for part in (task.specs[:mid], task.specs[mid:])
        ]
        return halves, None, "bisects"
    info = task.last_error or {}
    kind = info.get("kind", "raise")
    if task.backend_override is None:
        if kind in ("crash", "hang") and task.attempt < cfg.retries:
            retry = dc_replace(task, id=next_id(), attempt=task.attempt + 1)
            return [retry], None, "retries"
        if cfg.degrade_backend is not None:
            degraded = dc_replace(
                task,
                id=next_id(),
                attempt=task.attempt + 1,
                backend_override=cfg.degrade_backend,
            )
            return [degraded], None, "degraded"
    spec = task.specs[0]
    request = backend or "auto"
    backends = (request, task.backend_override or request)
    failure = TaskFailure(
        hash=spec.digest,
        scenario=spec.to_spec(),
        kind=kind,
        error_type=info.get("type", "Unknown"),
        message=info.get("message", "task failed"),
        traceback=info.get("traceback", ""),
        attempts=task.attempt + 1,
        backends=tuple(dict.fromkeys(backends)),
        worker_pid=info.get("worker_pid"),
        ts=time.time(),
    )
    return [], failure, "quarantined"


# -- worker side -------------------------------------------------------------


def _error_info(exc: Exception) -> dict:
    """The structured failure evidence of one raising group task."""
    return {
        "kind": "raise",
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": format_remote_traceback(exc),
        "worker_pid": os.getpid(),
    }


def _worker_main(
    inq, result_conn, init_args, chaos: ChaosSpec | None
) -> None:
    """The supervised worker loop: init, then task → result until stop.

    Runs the runner's pool initializer and group executor (imported
    lazily — the runner imports this module at top level) and answers
    every task on this worker's private result pipe: ``("ok", records,
    telemetry)`` or ``("err", info)`` carrying the child's
    formatted traceback.  This is the process boundary, so the span
    events and metrics the group recorded are drained into the ``ok``
    message for the parent to merge.
    """
    from repro.campaign import runner

    backend, cache = runner._worker_init(*init_args)
    while True:
        msg = inq.get()
        if msg is None:
            return
        specs, attempt, backend_override, dispatch_ts = msg
        try:
            records, tele = runner._execute_group(
                specs, attempt, backend_override, backend, dispatch_ts,
                chaos, cache,
            )
        except Exception as exc:  # noqa: BLE001 — shipped, not swallowed
            info = _error_info(exc)
            result_conn.send(("err", info))
            continue
        if obs.enabled():
            tr = obs.active()
            tele["events"] = tr.drain() if tr.path is None else []
            tele["metrics"] = metrics().drain()
        result_conn.send(("ok", records, tele))


class _Worker:
    """One supervised worker process with its own task and result channels.

    Up to :data:`PREFETCH` tasks are in flight per worker — one running
    plus one queued — so a worker rolls straight into its next task
    without waiting a parent round-trip.  ``inflight[0]`` is the running
    task; its wall-clock deadline starts at dispatch, or at the moment
    the previous result arrived.

    Every (re)spawn gets a fresh task queue and a fresh one-way result
    pipe whose write end only this worker holds.  A worker SIGKILL-ed
    mid-``send`` therefore tears at most its own pipe, which is thrown
    away with it, and its death reads as end-of-file rather than a
    cross-process lock left held forever.  Messages on one pipe arrive
    in dispatch order, so each one answers ``inflight[0]``.
    """

    def __init__(self, ctx, init_args, chaos) -> None:
        self._ctx = ctx
        self._init_args = init_args
        self._chaos = chaos
        self.inflight: deque[Task] = deque()
        self.started = 0.0
        self.spawn()

    def spawn(self) -> None:
        self.inq = self._ctx.Queue()
        self.result_conn, child_conn = self._ctx.Pipe(duplex=False)
        self.proc = self._ctx.Process(
            target=_worker_main,
            args=(self.inq, child_conn, self._init_args, self._chaos),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()  # the worker now holds the only write end
        self.inflight = deque()
        self.started = 0.0

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def dispatch(self, task: Task, dispatch_ts) -> None:
        if not self.inflight:
            self.started = time.monotonic()
        self.inflight.append(task)
        self.inq.put((
            task.specs, task.attempt, task.backend_override, dispatch_ts,
        ))

    def receive(self) -> list:
        """Every complete message waiting on the result pipe."""
        msgs = []
        try:
            while self.result_conn.poll():
                msgs.append(self.result_conn.recv())
        except (EOFError, OSError):
            pass  # the worker died; a torn last message is dropped
        return msgs

    def kill(self) -> None:
        """SIGKILL (if still running), reap, and close both channels."""
        if self.proc.is_alive():
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self.proc.join(timeout=5.0)
        self.inq.close()
        self.result_conn.close()

    def stop(self) -> None:
        """Graceful stop: sentinel, short join, then force-kill."""
        try:
            self.inq.put(None)
        except (ValueError, OSError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        self.kill()


# -- engines -----------------------------------------------------------------


class _Scheduler:
    """Shared re-run/bisect/quarantine bookkeeping of both engines.

    ``tasks`` is the run's list of spec tuples, one per group.
    """

    def __init__(self, tasks, cfg, on_failure, backend) -> None:
        self.cfg = cfg
        self.on_failure = on_failure
        self.backend = backend
        self.pending: deque[Task] = deque(
            Task(id=i, specs=tuple(specs)) for i, specs in enumerate(tasks)
        )
        self.done_digests: set[str] = set()
        self.stats = {key: 0 for key in STAT_KEYS}
        self._ids = iter(range(len(self.pending) * 4096, 2**62))

    def next_id(self) -> int:
        return next(self._ids)

    def pop_ready(self) -> Task | None:
        """The next dispatchable task, skipping fully-completed ones."""
        while self.pending:
            task = self.pending.popleft()
            fresh = [
                s for s in task.specs if s.digest not in self.done_digests
            ]
            if not fresh:
                continue
            if len(fresh) != len(task.specs):
                task = dc_replace(task, specs=tuple(fresh))
            return task
        return None

    def complete(self, task: Task) -> None:
        self.done_digests.update(task.digests())

    def fail(self, task: Task, info: dict) -> None:
        """Route one failed task through the recovery policy."""
        task.last_error = info
        replacements, terminal, event = plan_recovery(
            task, self.cfg, self.next_id, backend=self.backend
        )
        _count(self.stats, event)
        if terminal is not None:
            # Terminal means quarantined (or about to abort): mark the
            # digest handled so overlapping late results don't resurrect
            # a scenario the caller already recorded as failed.
            self.done_digests.add(terminal.hash)
            _log.warning(
                "scenario %s quarantined after %d attempt(s): %s: %s",
                terminal.hash, terminal.attempts,
                terminal.error_type,
                terminal.message.splitlines()[0]
                if terminal.message else "",
            )
            self.on_failure(terminal)
            return
        self.pending.extend(replacements)


def run_supervised(
    tasks,
    *,
    workers: int,
    cfg: SupervisorConfig,
    backend: str | None,
    init_args,
    chaos: ChaosSpec | None,
    dispatch_ts_factory,
    on_result,
    on_failure,
    on_dispatch,
    on_tick,
) -> dict:
    """Run group tasks over a supervised worker pool; return stats.

    ``tasks`` is a list of spec tuples (one per group).  ``on_result``
    receives ``(task, records, telemetry)`` exactly once
    per completed scenario set; ``on_failure`` receives each terminal
    :class:`TaskFailure` (raising inside it aborts the sweep — the
    pool is torn down and the exception propagates).  ``on_dispatch``
    receives the pid of each worker handed a task and ``on_tick`` is
    called after every wait: the liveness hooks of the run's ledger.
    ``backend`` is the sweep's backend request; the runner also hands it
    to every worker through ``init_args``.
    """
    ctx = multiprocessing.get_context()
    sched = _Scheduler(tasks, cfg, on_failure, backend)
    pool = [_Worker(ctx, init_args, chaos) for _ in range(workers)]

    def _handle(worker: _Worker, msg, now: float) -> None:
        task = worker.inflight.popleft()
        # The prefetched successor started the moment this result was
        # produced: restart its wall clock now.
        worker.started = now
        if msg[0] == "ok":
            _, records, tele = msg
            sched.complete(task)
            on_result(task, records, tele)
        else:
            sched.fail(task, msg[1])

    def _retire(worker: _Worker, event: str, info: dict) -> None:
        """Replace a dead or hung worker and fail its running task.

        The running head failed; prefetched successors never started
        and simply re-enter the queue, no attempt consumed.
        """
        head = worker.inflight.popleft() if worker.inflight else None
        queued = list(worker.inflight)
        _count(sched.stats, "respawns")
        worker.kill()
        worker.spawn()
        sched.pending.extend(queued)
        if head is not None:
            _count(sched.stats, event)
            sched.fail(head, info)

    # The parent's idle time: every wait on worker pipes, traced only.
    waited = (
        metrics().counter(obs_schema.COUNTER_SUPERVISOR_WAIT_S)
        if obs.enabled() else None
    )
    try:
        while True:
            now = time.monotonic()
            # Fill every worker to its prefetch depth, shallowest
            # first, so tasks spread across the pool before stacking.
            for depth in range(PREFETCH):
                for worker in pool:
                    if len(worker.inflight) != depth:
                        continue
                    task = sched.pop_ready()
                    if task is None:
                        break
                    worker.dispatch(task, dispatch_ts_factory())
                    on_dispatch(worker.pid)
            inflight = [w for w in pool if w.inflight]
            if not inflight:
                break  # no worker busy, so the fill found no task left
            # Sleep until an event: a result or a death (every result
            # pipe and process sentinel) or the nearest deadline —
            # bounded by POLL_INTERVAL so the heartbeat keeps ticking.
            wait = POLL_INTERVAL
            if cfg.task_timeout is not None:
                nearest = min(
                    w.started + cfg.task_timeout - now for w in inflight
                )
                wait = min(wait, max(0.0, nearest))
            wait_for_events(
                [w.result_conn for w in pool]
                + [w.proc.sentinel for w in pool],
                timeout=max(0.01, wait),
            )
            if waited is not None:
                waited.add(time.monotonic() - now)
            now = time.monotonic()
            for worker in pool:
                # Liveness first, then drain: a dead worker's pipe holds
                # every message it finished, so none is mistaken for
                # the crash.
                alive = worker.proc.is_alive()
                for msg in worker.receive():
                    _handle(worker, msg, now)
                if alive:
                    continue
                _retire(worker, "crashes", {
                    "kind": "crash",
                    "type": "WorkerCrashed",
                    "message": (
                        "worker process died while running the task "
                        "(signal/OOM/segfault; no traceback available)"
                    ),
                    "traceback": "",
                    "worker_pid": None,
                })
            # Hung workers: running head past the wall-clock deadline.
            if cfg.task_timeout is not None:
                for worker in pool:
                    if not worker.inflight:
                        continue
                    if now - worker.started <= cfg.task_timeout:
                        continue
                    pid = worker.pid
                    _log.warning(
                        "task %d exceeded task_timeout=%.3gs on worker "
                        "%s; killing and retrying",
                        worker.inflight[0].id, cfg.task_timeout, pid,
                    )
                    _retire(worker, "timeouts", {
                        "kind": "hang",
                        "type": "TaskTimeout",
                        "message": (
                            f"task exceeded the {cfg.task_timeout:g}s "
                            f"wall-clock timeout on worker {pid}"
                        ),
                        "traceback": "",
                        "worker_pid": pid,
                    })
            on_tick()
    finally:
        for worker in pool:
            worker.stop()
    return sched.stats


def run_inline(
    tasks,
    *,
    cfg: SupervisorConfig,
    backend: str | None,
    cache,
    chaos: ChaosSpec | None,
    on_result,
    on_failure,
) -> dict:
    """The single-process engine: same recovery policy, no pool.

    Each task runs through the runner's group executor — the one pool
    workers run — in the calling process, so its spans land directly
    in the caller's tracer.  ``on_result`` receives the same
    ``(task, records, telemetry)`` as on the pool path;
    raising routes the task through bisect → degrade → quarantine
    exactly like the pool path.  Hang and crash supervision
    need a separate process and are therefore pool-only: inline, a hang
    blocks and a crash kills the run — ``workers=1`` remains the
    transparent debugging mode.  ``backend`` is the sweep's backend
    request and ``cache`` the run's compile cache.
    """
    from repro.campaign import runner

    sched = _Scheduler(tasks, cfg, on_failure, backend)
    while (task := sched.pop_ready()) is not None:
        try:
            records, tele = runner._execute_group(
                task.specs, task.attempt, task.backend_override, backend,
                None, chaos, cache,
            )
        except Exception as exc:  # noqa: BLE001 — routed, not swallowed
            sched.fail(task, _error_info(exc))
            continue
        sched.complete(task)
        on_result(task, records, tele)
    return sched.stats
