"""Campaign heartbeats: the run's ledger and its externally-observable pulse.

Every campaign run keeps one :class:`HeartbeatWriter`, the run's
ledger: each finished group is folded into it once — its worker row
(groups, scenarios, busy seconds, last seen) and its compile-cache and
schedule-store hits and misses.  The run summary reads its
``compile_cache``, ``traffic_cache`` and ``telemetry.workers`` from the
ledger, and the heartbeat publishes the same worker rows as
``worker_liveness``, so the summary, the heartbeat and the
``campaign watch`` line cannot disagree.

A running campaign is invisible from outside its process — the store
grows, but nothing says how fast, by whom, or how much is left.  With
heartbeats on, the ledger therefore drops a tiny
``repro-campaign-heartbeat`` JSON document next to the store
(``sweep.jsonl`` → ``sweep.heartbeat.json``) every ``interval``
seconds: done/total counts, completion rate, ETA, per-worker liveness
and — when a tracer is active — the drained counter snapshot.  With
heartbeats off it only counts.

Writes go through **atomic rename** (:func:`repro.io.write_atomic`):
the document lands in a temp file in the same directory and is renamed
over the target, so a concurrent reader sees either the previous
complete beat or the next one, never a torn write.  That property is
what makes ``python -m repro campaign watch`` (and any future serve
daemon) safe to point at a store owned by another process.

The heartbeat is pure telemetry, like the tracer: it never touches the
store, the records, or anything digest-bearing — a sweep with heartbeats
disabled produces a byte-identical store.

:func:`watch_campaign` is the consumer: a generator polling
store + heartbeat and yielding merged snapshots until the run completes
(or a timeout passes), which the CLI renders as refreshing progress.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterator

from repro.core.errors import ReproError
from repro.io import parse_document, write_atomic

__all__ = [
    "HEARTBEAT_ENV",
    "HEARTBEAT_FORMAT",
    "HEARTBEAT_VERSION",
    "HeartbeatWriter",
    "default_interval",
    "heartbeat_path",
    "read_heartbeat",
    "render_watch_line",
    "snapshot",
    "watch_campaign",
]

HEARTBEAT_FORMAT = "repro-campaign-heartbeat"
HEARTBEAT_VERSION = 1

#: Environment override for the heartbeat interval in seconds;
#: ``0`` (or any value <= 0) disables heartbeats entirely.
HEARTBEAT_ENV = "REPRO_CAMPAIGN_HEARTBEAT"

#: Default seconds between beats — coarse enough to be free next to any
#: real group task, fine enough for a live progress display.
DEFAULT_INTERVAL = 1.0

#: Fallback staleness threshold for the watch renderer when the run
#: has no task timeout configured: a worker with no dispatch or
#: completed group for this many seconds is reported as stalled (it may
#: legitimately be deep in one long slab).  Runs with a ``task_timeout``
#: use that timeout as the threshold instead — past it, the supervisor
#: would have killed the worker, so a silent one is genuinely stuck.
STALE_AFTER = 30.0


def default_interval() -> float:
    """The configured heartbeat interval: env override or the default.

    ``REPRO_CAMPAIGN_HEARTBEAT=0`` (or negative) disables heartbeats; a
    value that does not parse as a number raises :class:`ReproError`
    rather than silently turning them off.
    """
    raw = os.environ.get(HEARTBEAT_ENV, "").strip()
    if not raw:
        return DEFAULT_INTERVAL
    try:
        return float(raw)
    except ValueError:
        raise ReproError(
            f"{HEARTBEAT_ENV}={raw!r} is not a number of seconds"
        ) from None


def heartbeat_path(store_path: str | Path) -> Path:
    """The heartbeat file paired with a store: ``<stem>.heartbeat.json``."""
    store = Path(store_path)
    return store.with_name(store.stem + ".heartbeat.json")


class HeartbeatWriter:
    """The ledger of one campaign run, published as heartbeats.

    :func:`~repro.campaign.runner.run_campaign` builds one per run and
    folds every finished group into it with :meth:`note_group`.  With a
    ``store_path``, :meth:`beat` publishes a ``running`` document after
    every stored record (rate-limited to ``interval``) and
    :meth:`finish` stamps the terminal ``complete`` one.  With
    ``store_path=None`` (heartbeats off) the ledger counts and builds no
    document.
    """

    def __init__(
        self,
        store_path: str | Path | None,
        *,
        total: int,
        skipped: int = 0,
        workers: int = 1,
        batch: int = 1,
        backend: str | None = None,
        interval: float = DEFAULT_INTERVAL,
        task_timeout: float | None = None,
    ) -> None:
        self.path = None if store_path is None else heartbeat_path(store_path)
        self.store = str(store_path)
        self.total = total
        self.skipped = skipped
        self.workers = workers
        self.batch = batch
        self.backend = backend
        self.interval = interval
        self.task_timeout = task_timeout
        self.compile_cache = {"hits": 0, "misses": 0}
        self.traffic_cache = {"hits": 0, "misses": 0}
        self._t0 = time.time()
        self._perf0 = time.perf_counter()
        self._last_beat = None  # monotonic stamp of the last write
        self._worker_rows: dict[int, dict] = {}

    # -- accounting ----------------------------------------------------------

    def note_group(self, tele: dict) -> None:
        """Fold one finished group's telemetry (the ``telemetry`` of
        :func:`~repro.campaign.runner._execute_group`): its worker row
        and its compile-cache and schedule-store hits and misses."""
        self.note_worker(tele["pid"], tele["scenarios"], tele["busy_s"])
        self.compile_cache["hits"] += tele["hits"]
        self.compile_cache["misses"] += tele["misses"]
        self.traffic_cache["hits"] += tele["traffic_hits"]
        self.traffic_cache["misses"] += tele["traffic_misses"]

    def note_worker(
        self, pid: int, scenarios: int, busy_s: float
    ) -> None:
        """Fold one finished group task into the per-worker liveness rows."""
        row = self._seen(pid)
        row["groups"] += 1
        row["scenarios"] += scenarios
        row["busy_s"] += busy_s

    def note_dispatch(self, pid: int) -> None:
        """Mark a task handed to a worker — the start of its silence.

        Keeps ``last_seen`` honest for hang detection: a worker that
        goes quiet *after* a dispatch ages from the dispatch, so the
        watch renderer can flag it as stalled once its silence exceeds
        the task timeout.
        """
        self._seen(pid)

    def _seen(self, pid: int) -> dict:
        row = self._worker_rows.setdefault(
            pid,
            {"groups": 0, "scenarios": 0, "busy_s": 0.0, "last_seen": None},
        )
        row["last_seen"] = self._now()
        return row

    def utilization(self, wall_s: float) -> dict:
        """The summary's ``telemetry.workers``: the row of each worker
        that finished a group, with its busy share of ``wall_s``."""
        return {
            str(pid): {
                "groups": row["groups"],
                "scenarios": row["scenarios"],
                "busy_s": row["busy_s"],
                "utilization": row["busy_s"] / wall_s if wall_s > 0 else 0.0,
            }
            for pid, row in sorted(self._worker_rows.items())
            if row["groups"]
        }

    def _now(self) -> float:
        # Same hybrid clock as the tracer: a wall anchor advanced by
        # perf_counter deltas, monotonic within this process.
        return self._t0 + (time.perf_counter() - self._perf0)

    # -- writing -------------------------------------------------------------

    def _doc(self, done: int, status: str) -> dict:
        now = self._now()
        elapsed = max(now - self._t0, 1e-12)
        ran = done - self.skipped
        rate = ran / elapsed
        remaining = self.total - done
        eta = remaining / rate if rate > 0 else None
        counters: dict = {}
        from repro.obs import trace as obs
        from repro.obs.metrics import metrics

        if obs.enabled():
            counters = metrics().snapshot()["counters"]
        return {
            "format": HEARTBEAT_FORMAT,
            "version": HEARTBEAT_VERSION,
            "pid": os.getpid(),
            "store": self.store,
            "status": status,
            "total": self.total,
            "done": done,
            "skipped": self.skipped,
            "pending": remaining,
            "workers": self.workers,
            "batch": self.batch,
            "backend": self.backend,
            "task_timeout": self.task_timeout,
            "started_ts": self._t0,
            "updated_ts": now,
            "elapsed_s": elapsed,
            "rate_per_s": rate,
            "eta_s": eta,
            "worker_liveness": {
                str(pid): dict(row)
                for pid, row in sorted(self._worker_rows.items())
            },
            "counters": counters,
        }

    def _write(self, doc: dict) -> None:
        # Atomic publish: readers never see partial JSON.
        write_atomic(self.path, json.dumps(doc, sort_keys=True) + "\n")

    def beat(self, done: int, force: bool = False) -> bool:
        """Publish a ``running`` heartbeat, rate-limited to ``interval``.

        Returns True when a document was actually written; never without
        a store path.
        """
        now = time.perf_counter()
        if self.path is None or (
            not force
            and self._last_beat is not None
            and now - self._last_beat < self.interval
        ):
            return False
        self._last_beat = now
        self._write(self._doc(done, "running"))
        return True

    def finish(self, done: int) -> None:
        """Publish the terminal ``complete`` heartbeat (always written
        when the ledger has a store path)."""
        self._last_beat = time.perf_counter()
        if self.path is not None:
            self._write(self._doc(done, "complete"))


# -- reading / watching ------------------------------------------------------


def read_heartbeat(path: str | Path) -> dict | None:
    """Load a heartbeat document; ``None`` when the file is absent.

    Raises :class:`ReproError` for a file that exists but is not a
    ``repro-campaign-heartbeat`` document — atomic renames mean a
    partial read is a format violation, not an expected race.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return parse_document(
        text, HEARTBEAT_FORMAT, (HEARTBEAT_VERSION,), source=path
    )


def snapshot(store_path: str | Path) -> dict:
    """One merged progress observation of a (possibly foreign) run.

    Combines the heartbeat (authoritative for totals/rates while the
    runner lives) with a cheap record count of the store itself
    (authoritative for what is actually persisted).  ``status`` is
    ``"waiting"`` until either exists.
    """
    from repro.campaign.store import ResultStore

    store = Path(store_path)
    beat = read_heartbeat(heartbeat_path(store))
    records = ResultStore(store).count_records() if store.exists() else 0
    if beat is None:
        return {
            "status": "running" if records else "waiting",
            "done": records,
            "total": None,
            "records": records,
            "heartbeat": None,
        }
    return {
        "status": beat["status"],
        "done": beat["done"],
        "total": beat["total"],
        "records": records,
        "heartbeat": beat,
    }


def watch_campaign(
    store_path: str | Path,
    *,
    interval: float = 0.5,
    timeout: float | None = None,
) -> Iterator[dict]:
    """Poll store + heartbeat, yielding snapshots until completion.

    Yields at least one snapshot.  The generator ends after yielding a
    snapshot whose status is ``complete`` — or, with ``timeout``, after
    that many seconds (whatever state the run is in), letting callers
    distinguish a finished sweep (last snapshot says so) from giving up.
    """
    t0 = time.perf_counter()
    while True:
        snap = snapshot(store_path)
        yield snap
        if snap["status"] == "complete":
            return
        if (
            timeout is not None
            and time.perf_counter() - t0 >= timeout
        ):
            return
        time.sleep(interval)


def render_watch_line(snap: dict) -> str:
    """One refreshing progress line for ``campaign watch``."""
    status = snap["status"]
    done = snap["done"]
    total = snap["total"]
    if total:
        frac = done / total
        width = 24
        filled = int(round(frac * width))
        bar = "#" * filled + "-" * (width - filled)
        line = f"[{bar}] {done}/{total} ({frac * 100:5.1f}%)"
    else:
        line = f"{done} record(s) stored"
    beat = snap.get("heartbeat")
    if beat is not None:
        line += f"  {beat['rate_per_s']:.1f}/s"
        if status == "running" and beat.get("eta_s") is not None:
            line += f"  eta {beat['eta_s']:.0f}s"
        live = stalled = 0
        now = beat["updated_ts"]
        # A worker silent longer than the run's task timeout is stuck:
        # the supervisor would have killed and respawned it otherwise.
        # Without a timeout, fall back to the coarse staleness window.
        threshold = beat.get("task_timeout") or STALE_AFTER
        for row in beat.get("worker_liveness", {}).values():
            seen = row.get("last_seen")
            if seen is not None and now - seen <= threshold:
                live += 1
            else:
                stalled += 1
        if live or stalled:
            line += f"  workers {live} live"
            if stalled:
                line += f" / {stalled} stalled"
        workers = beat.get("workers", 1)
        if workers > 1:
            # Parallel efficiency from the ledger's worker rows, the
            # rows the run summary's utilization reads: busy seconds
            # over elapsed seconds times workers.
            busy = sum(
                row.get("busy_s", 0.0)
                for row in beat.get("worker_liveness", {}).values()
            )
            line += f"  eff {100 * busy / (beat['elapsed_s'] * workers):.0f}%"
    return f"{line}  [{status}]"
