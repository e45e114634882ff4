"""Structured campaign failures: remote tracebacks and the quarantine store.

A campaign worker dies three ways — it raises, it crashes (segfault /
OOM-kill / chaos ``SIGKILL``), or it hangs past the task timeout — and
every one of them used to be fatal to the whole sweep.  This module is
the vocabulary the supervisor uses to make them survivable:

* :class:`RemoteTaskError` — an exception that carries the *formatted*
  child traceback across the process boundary.  Pickling an exception
  through a pool strips its ``__traceback__``; wrapping preserves the
  child stack as text, so abort-mode failures are debuggable.
* :class:`TaskFailure` — the terminal record of one scenario that could
  not be completed: what failed, how (``raise``/``crash``/``hang``),
  after how many attempts, on which backends, with the full remote
  traceback when one exists.
* :class:`QuarantineStore` — the ``repro-campaign-quarantine`` JSONL
  sidecar next to the result store (``sweep.jsonl`` →
  ``sweep.quarantine.jsonl``).  Quarantined scenarios are skipped on
  ``--resume`` and listed / inspected / requeued by
  ``python -m repro campaign quarantine``.

The sidecar is diagnostic state, not result state: it never feeds
aggregation, and removing records from it (requeue) simply makes the
next ``--resume`` run those scenarios again.
"""

from __future__ import annotations

import json
import traceback as tb_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.core.errors import ReproError
from repro.io import JsonlLog, parse_record

__all__ = [
    "QUARANTINE_FORMAT",
    "QUARANTINE_VERSION",
    "QuarantineStore",
    "RemoteTaskError",
    "TaskFailure",
    "format_remote_traceback",
    "quarantine_path",
]

QUARANTINE_FORMAT = "repro-campaign-quarantine"
QUARANTINE_VERSION = 1

#: Failure kinds a task can die of.
FAILURE_KINDS = ("raise", "crash", "hang")


def format_remote_traceback(exc: BaseException) -> str:
    """The full formatted traceback of an exception, as one string."""
    return "".join(
        tb_module.format_exception(type(exc), exc, exc.__traceback__)
    )


class RemoteTaskError(ReproError):
    """A campaign task failed in a worker process.

    Carries the child's formatted traceback as
    :attr:`remote_traceback` — the text survives pickling through a
    pool result pipe, where the exception's own ``__traceback__`` does
    not.  ``str()`` includes it, so an abort-mode campaign failure
    prints the real failing frame, not the parent's re-raise site.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        self.remote_traceback = remote_traceback
        super().__init__(message)

    def __str__(self) -> str:
        message = self.args[0] if self.args else ""
        if not self.remote_traceback:
            return message
        return (
            f"{message}\n"
            "---- remote traceback (worker process) ----\n"
            f"{self.remote_traceback.rstrip()}"
        )

    def __reduce__(self):
        # Explicit two-arg reconstruction: the default reduce would
        # replay only ``args`` and drop the traceback attribute.
        message = self.args[0] if self.args else ""
        return (type(self), (message, self.remote_traceback))

    @classmethod
    def from_exception(
        cls, exc: BaseException, context: str = "campaign task failed"
    ) -> "RemoteTaskError":
        """Wrap a live exception, capturing its formatted traceback."""
        return cls(
            f"{context}: {type(exc).__name__}: {exc}",
            format_remote_traceback(exc),
        )


@dataclass(frozen=True)
class TaskFailure:
    """The terminal failure record of one quarantined scenario.

    Parameters mirror the quarantine sidecar's wire form: the scenario
    identity (``hash`` + wire ``scenario`` dict) plus the error evidence
    (kind, exception type/message, remote traceback, attempt count, the
    backends tried and the last worker pid seen holding the task).
    """

    hash: str
    scenario: Mapping
    kind: str  # "raise" | "crash" | "hang"
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    backends: tuple = ()
    worker_pid: int | None = None
    ts: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ReproError(
                f"failure kind must be one of {FAILURE_KINDS}, "
                f"got {self.kind!r}"
            )

    def to_dict(self) -> dict:
        return {
            "hash": self.hash,
            "scenario": dict(self.scenario),
            "error": {
                "kind": self.kind,
                "type": self.error_type,
                "message": self.message,
                "traceback": self.traceback,
                "attempts": self.attempts,
                "backends": list(self.backends),
                "worker_pid": self.worker_pid,
                "ts": self.ts,
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TaskFailure":
        err = doc["error"]
        return cls(
            hash=doc["hash"],
            scenario=dict(doc["scenario"]),
            kind=err["kind"],
            error_type=err["type"],
            message=err["message"],
            traceback=err.get("traceback", ""),
            attempts=err.get("attempts", 1),
            backends=tuple(err.get("backends", ())),
            worker_pid=err.get("worker_pid"),
            ts=err.get("ts"),
        )

    def summary(self) -> str:
        """One list line: hash, label, kind and the first message line."""
        label = "?"
        topo = self.scenario.get("topology")
        if isinstance(topo, Mapping):
            label = topo.get("label", "?")
        first = self.message.splitlines()[0] if self.message else ""
        return (
            f"{self.hash}  {label}  kind={self.kind}  "
            f"{self.error_type}: {first}  (attempts={self.attempts})"
        )


def quarantine_path(store_path: str | Path) -> Path:
    """The quarantine sidecar paired with a store."""
    store = Path(store_path)
    return store.with_name(store.stem + ".quarantine.jsonl")


def _check_failure(doc) -> str | None:
    """Why a parsed sidecar line is not a failure record, or ``None``."""
    if not isinstance(doc, dict) or any(
        k not in doc for k in ("hash", "scenario", "error")
    ):
        return "missing record keys"
    err = doc["error"]
    if not isinstance(err, dict) or any(
        k not in err for k in ("kind", "type", "message")
    ):
        return "missing error keys"
    if err["kind"] not in FAILURE_KINDS:
        return f"unknown failure kind {err['kind']!r}"
    return None


class QuarantineStore:
    """The append-only JSONL sidecar of quarantined scenarios.

    Same file discipline as the result store (both are
    :class:`repro.io.JsonlLog`) — a format header line followed by one
    JSON record per failure, flushed per append, torn final line
    tolerated — so a supervisor killed mid-quarantine loses at most the
    record being written.
    """

    def __init__(self, path: str | Path) -> None:
        self._log = JsonlLog(path, QUARANTINE_FORMAT, (QUARANTINE_VERSION,))
        self.path = self._log.path

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, failure: TaskFailure) -> None:
        """Append one terminal failure and flush it to disk."""
        self._log.append(json.dumps(failure.to_dict(), sort_keys=True))

    def records(self) -> Iterator[TaskFailure]:
        """Yield the quarantined failures, tolerating a torn tail line.

        Raises :class:`ReproError` naming the path and line for any
        complete line that :meth:`verify` would flag.
        """
        for doc in self._log.records(_check_failure, "quarantine record"):
            yield TaskFailure.from_dict(doc)

    def verify(self) -> dict:
        """Schema-check every failure line, returning a corruption report.

        The quarantine half of ``campaign store verify --sidecars``:
        same report shape as
        :meth:`repro.campaign.store.ResultStore.verify` —
        ``{"path", "records", "bad": [{"line", "reason"}, …], "ok"}``
        plus ``"exists"`` and ``"torn_tail"``.  Unlike :meth:`records`
        this never raises on record-level corruption (only on a broken
        header).  A torn final line is *tolerated* — reported via
        ``torn_tail`` but not counted bad — matching the read-path
        semantics of :meth:`records` and the trace reader: a supervisor
        killed mid-append is expected wear, not corruption.
        """
        report = {
            "path": str(self.path),
            "exists": self.path.exists(),
            "records": 0,
            "bad": [],
            "torn_tail": False,
            "ok": True,
        }
        if not report["exists"]:
            return report
        body = self._log.read()
        for i, line in enumerate(body.lines, start=2):
            _doc, reason = parse_record(line, _check_failure)
            if reason is None:
                report["records"] += 1
            else:
                report["bad"].append({"line": i, "reason": reason})
        report["torn_tail"] = body.torn is not None
        report["ok"] = not report["bad"]
        return report

    def hashes(self) -> set[str]:
        """Scenario hashes currently quarantined (the resume skip-set)."""
        return {failure.hash for failure in self.records()}

    def get(self, digest: str) -> TaskFailure | None:
        """The failure record of one hash (prefix match), or ``None``."""
        for failure in self.records():
            if failure.hash.startswith(digest):
                return failure
        return None

    def requeue(self, hashes: Iterable[str] | None = None) -> int:
        """Drop failures from the sidecar so ``--resume`` re-runs them.

        ``hashes`` limits the requeue to those scenarios (prefix match);
        ``None`` requeues everything.  Returns the number of records
        removed.  The rewrite is atomic (:meth:`JsonlLog.rewrite`).
        """
        prefixes = None if hashes is None else tuple(hashes)
        failures = list(self.records())
        kept = [
            f for f in failures
            if prefixes is not None
            and not any(f.hash.startswith(p) for p in prefixes)
        ]
        if len(kept) == len(failures):
            return 0
        self._log.rewrite(
            json.dumps(f.to_dict(), sort_keys=True) for f in kept
        )
        return len(failures) - len(kept)

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __repr__(self) -> str:
        return f"QuarantineStore({str(self.path)!r})"
