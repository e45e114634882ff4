"""The append-only JSONL result store behind campaign runs.

One file per campaign: a ``repro-campaign-store`` header line followed by
one JSON record per completed scenario —

::

    {"format": "repro-campaign-store", "version": 2}
    {"crc": "1c2d…", "hash": "6fa1…", "report": {…}, "scenario": {…}}
    {"crc": "07be…", "hash": "93c0…", "report": {…}, "scenario": {…}}

Records are appended and flushed as workers finish, so a killed run loses
at most the line being written.  :meth:`ResultStore.records` skips a
final line without its newline for exactly that reason — crash-safe
``--resume`` reads the surviving records, skips their scenarios and
re-runs the rest — but raises on any complete line that is not a record.
The file handling (header check, append, tail repair, atomic rewrite) is
:class:`repro.io.JsonlLog`; this module holds the record schema.

The store is keyed by the scenario digest
(:attr:`repro.spec.scenario.ScenarioSpec.digest`): append order is
completion order and therefore *not* deterministic under a worker pool,
but every consumer (resume, aggregation) sorts by hash, so campaign
outputs are order-independent.

A record holds results only — the
:meth:`~repro.sim.metrics.SimReport.to_dict` form, which leaves out
wall-clock telemetry — so rerunning a campaign writes the same record
bytes, and the same file bytes whenever the completion order repeats.
Version 1 stores (whose reports still carry the wall-clock ``elapsed``
field) stay readable, verifiable and resumable; appends and repairs keep
their version-1 header.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from repro.io import JsonlLog, parse_record
from repro.sim.metrics import SimReport
from repro.spec.scenario import canonical_json

__all__ = ["ResultStore", "record_crc"]

_FORMAT = "repro-campaign-store"
#: Store versions this reader accepts; new stores get the last one.
_VERSIONS = (1, 2)

#: Record keys covered by the per-record CRC (everything but the CRC).
_CRC_KEYS = ("hash", "scenario", "report")


def _check_record(record) -> str | None:
    """Why a parsed line is not a store record, or ``None``."""
    if not isinstance(record, dict) or any(k not in record for k in _CRC_KEYS):
        return "missing record keys"
    return None


def record_crc(record: Mapping) -> str:
    """CRC32 of a record's canonical JSON, as 8 hex digits.

    Computed over the ``hash``/``scenario``/``report`` triple in
    canonical form (sorted keys, no whitespace), so the checksum is
    independent of the on-disk spelling and of the ``crc`` field
    itself.  Guards against *torn or bit-rotted mid-file records*: the
    append path already makes torn tails recoverable, but a corruption
    anywhere else was previously only detectable, never attributable
    or repairable.
    """
    doc = {k: record[k] for k in _CRC_KEYS}
    return format(zlib.crc32(canonical_json(doc).encode("utf-8")), "08x")


#: Sorted-key JSON with a NUL after every separator.  ``json`` escapes
#: control characters inside strings, so every NUL marks a separator:
#: dropped it leaves the canonical form, a space the line form.
_MARKED = json.JSONEncoder(sort_keys=True, separators=(",\0", ":\0"))


def _record_line(digest: str, scenario: Mapping, report: Mapping) -> str:
    """A record's store line, encoded once: the canonical form for its
    :func:`record_crc` and the ``json.dumps(..., sort_keys=True)`` line
    both come from one marked encoding."""
    marked = _MARKED.encode(
        {"hash": digest, "report": dict(report), "scenario": dict(scenario)}
    )
    crc = zlib.crc32(marked.replace("\0", "").encode("utf-8"))
    return f'{{"crc": "{crc:08x}", ' + marked[1:].replace("\0", " ")


class ResultStore:
    """An append-only scenario → report store on one JSONL file.

    Parameters
    ----------
    path:
        The store file; created (with its header line) on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self._log = JsonlLog(path, _FORMAT, _VERSIONS)
        self.path = self._log.path

    def exists(self) -> bool:
        """True when the store file is present on disk."""
        return self.path.exists()

    # -- writing -----------------------------------------------------------

    def append(
        self, digest: str, scenario: Mapping, report: Mapping
    ) -> None:
        """Append one completed scenario record and flush it to disk.

        ``report`` is the :meth:`~repro.sim.metrics.SimReport.to_dict`
        form — the store holds JSON, not objects.  Each record carries
        a ``crc`` field (:func:`record_crc`) so ``campaign store
        verify``/``repair`` can detect corrupt mid-file records; stores
        written before the field existed verify fine (their records
        simply have no checksum to check).
        """
        self.extend([(digest, scenario, report)])

    def extend(
        self,
        records: Iterable[tuple[str, Mapping, Mapping]],
        written: Callable[[int], None] | None = None,
    ) -> None:
        """Append ``(digest, scenario, report)`` records like
        :meth:`append`, all through one open of the file; ``written(i)``
        runs once record ``i`` is flushed (:meth:`JsonlLog.extend
        <repro.io.JsonlLog.extend>`)."""
        lines = [_record_line(*record) for record in records]
        self._log.extend(lines, written)

    # -- reading -----------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Yield the stored records, skipping a torn final line (no newline).

        Raises :class:`ReproError` when the file exists but is not a
        ``repro-campaign-store`` document, or when any complete line
        (the final one included) is not a record.
        """
        return self._log.records(_check_record)

    # -- integrity ---------------------------------------------------------

    def _classify_lines(
        self,
    ) -> tuple[str | None, list[str], list[tuple[int, str, str]]]:
        """The header, the good lines and bad ``(lineno, line, reason)``
        triples of the store body.

        Judges every line independently (unlike :meth:`records`, which
        refuses the first bad one): invalid JSON, a non-object, missing
        keys, or a ``crc`` mismatch all mark a line bad, and so can a
        torn final line.  Records without a ``crc`` field (written
        before the field existed) are judged on shape alone.  A wrong
        header means the file is not a store, and that is an error, not
        a repair.
        """
        body = self._log.read()
        lines = body.lines if body.torn is None else [*body.lines, body.torn]
        good: list[str] = []
        bad: list[tuple[int, str, str]] = []
        for i, line in enumerate(lines, start=2):
            record, reason = parse_record(line, _check_record)
            if (
                reason is None
                and "crc" in record
                and record["crc"] != record_crc(record)
            ):
                reason = (
                    f"crc mismatch (stored {record['crc']}, "
                    f"computed {record_crc(record)})"
                )
            if reason is None:
                good.append(line)
            else:
                bad.append((i, line, reason))
        return body.header, good, bad

    def verify(self) -> dict:
        """Check every record line, returning a corruption report.

        Returns ``{"records": n_good, "bad": [{"line": i, "reason":
        …}, …], "ok": bool}``.  Unlike :meth:`records` this never raises
        on record-level corruption (only on a broken header) — it exists
        to *diagnose* stores that ``records()`` refuses to read, e.g.
        after a disk error or a torn concurrent write.  A torn tail
        shows up here as one bad final line, although ``--resume``
        already skips it (and its first append cuts it); :meth:`repair`
        drops it so the store verifies clean again.
        """
        _header, good, bad = self._classify_lines()
        return self._report(good, bad)

    def _report(self, good: list, bad: list) -> dict:
        return {
            "path": str(self.path),
            "records": len(good),
            "bad": [
                {"line": lineno, "reason": reason}
                for lineno, _line, reason in bad
            ],
            "ok": not bad,
        }

    def repair(self) -> dict:
        """Drop corrupt record lines, preserving them in a ``.bad`` sidecar.

        Atomically rewrites the store (its own header, so a version-1
        store stays version 1, plus the good lines); the dropped raw
        lines are appended to ``<path>.bad`` so nothing is destroyed — a
        partially recoverable record can still be salvaged by hand.
        Returns the :meth:`verify`-style report plus ``"dropped"`` and
        ``"bad_file"`` keys.  A clean store is left untouched.
        """
        header, good, bad = self._classify_lines()
        report = {
            **self._report(good, bad),
            "ok": True,
            "dropped": len(bad),
            "bad_file": None,
        }
        if not bad:
            return report
        bad_path = self.path.with_name(self.path.name + ".bad")
        with open(bad_path, "a", encoding="utf-8") as fh:
            for _lineno, line, _reason in bad:
                fh.write(line + "\n")
        self._log.rewrite(good, header)
        report["bad_file"] = str(bad_path)
        return report

    def count_records(self) -> int:
        """A cheap record count: complete lines minus the header.

        Counts newline-terminated lines without parsing any JSON — the
        poll a live ``campaign watch`` issues every tick against a store
        another process is appending to.  A torn tail line (no newline
        yet) is excluded, as :meth:`records` skips it; the count trusts
        the header without validating it, so a non-store file reports
        its line count, not an error.
        """
        return self._log.count()

    def hashes(self) -> set[str]:
        """The scenario hashes already stored (the resume skip-set)."""
        return {record["hash"] for record in self.records()}

    def reports(self) -> dict[str, SimReport]:
        """hash → :class:`SimReport` for every stored record."""
        return {
            record["hash"]: SimReport.from_dict(record["report"])
            for record in self.records()
        }

    def scenario_specs(self) -> dict[str, "ScenarioSpec"]:
        """hash → :class:`~repro.spec.scenario.ScenarioSpec` per record.

        Parses each stored scenario wire dict back into its typed spec —
        the inspection path for tooling that wants to re-resolve or
        re-run stored scenarios.
        """
        from repro.spec.scenario import ScenarioSpec

        return {
            record["hash"]: ScenarioSpec.from_spec(record["scenario"])
            for record in self.records()
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __contains__(self, digest: str) -> bool:
        return digest in self.hashes()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"
