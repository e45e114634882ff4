"""JSON serialization of MI-digraphs and simulation reports.

Networks are exchanged as a small JSON document::

    {
      "format": "repro-midigraph",
      "version": 1,
      "n_stages": 4,
      "size": 8,
      "connections": [{"f": [...], "g": [...]}, ...]
    }

The format stores the ``(f, g)`` split exactly (it is part of a network's
*definition* even though equivalence ignores it), so round-trips are
identity, not merely isomorphism.

:class:`~repro.sim.metrics.SimReport` values use the sibling
``repro-simreport`` format (a flat field dict under the same header
convention), so simulation results can be archived and diffed across
runs.

Campaign sweep grids (:class:`~repro.campaign.spec.CampaignSpec`) use the
``repro-campaign`` format — the declarative document behind
``python -m repro campaign run --spec``.

Single scenarios (:class:`~repro.spec.scenario.ScenarioSpec`) use the
``repro-scenario`` format: the canonical scenario wire dict under the
same header convention, so one fully-specified simulation can be saved,
shared and replayed (``python -m repro simulate --scenario``).

This module is also the one place that knows the file convention every
``repro-*`` file shares.  :func:`parse_document` is the one header check
(whole documents and log header lines alike), :class:`JsonlLog` the one
append-only log layer behind the campaign store, the quarantine sidecar
and trace files, and :func:`write_atomic` the one temp-file-plus-rename
publish.  A log record is complete once its newline is on disk: a final
line without one is the torn write of a killed run, which readers skip
and the next append cuts; any complete line that fails its check raises.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence,
)

from repro.core.connection import Connection
from repro.core.errors import InvalidNetworkError, ReproError
from repro.core.midigraph import MIDigraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.spec import CampaignSpec
    from repro.sim.metrics import SimReport
    from repro.spec.scenario import ScenarioSpec

__all__ = [
    "load_campaign",
    "load_network",
    "load_report",
    "load_scenario",
    "loads_campaign",
    "loads_network",
    "loads_report",
    "loads_scenario",
    "dump_campaign",
    "dump_network",
    "dump_report",
    "dump_scenario",
    "dumps_campaign",
    "dumps_network",
    "dumps_report",
    "dumps_scenario",
]

_FORMAT = "repro-midigraph"
_VERSION = 1
_REPORT_FORMAT = "repro-simreport"
_REPORT_VERSION = 1
_CAMPAIGN_FORMAT = "repro-campaign"
_CAMPAIGN_VERSION = 1
_SCENARIO_FORMAT = "repro-scenario"
_SCENARIO_VERSION = 1

_HEADER_KEYS = ("format", "version")


def parse_document(
    text: str,
    fmt: str,
    versions: tuple[int, ...],
    *,
    source: str | Path | None = None,
    error: type[ReproError] = ReproError,
) -> dict:
    """Parse JSON text and check its ``{"format", "version"}`` header.

    The one header check of every ``repro-*`` file — whole documents and
    log header lines alike.  Returns the whole document.  Raises
    ``error`` (``source``-prefixed, naming ``fmt``) when the text is not
    JSON, not a ``fmt`` object, or of a version outside ``versions``.
    """
    where = "" if source is None else f"{source}: "
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise error(f"{where}{fmt} document is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise error(
            f"{where}not a {fmt} document "
            "(top-level JSON value must be an object)"
        )
    if doc.get("format") != fmt:
        raise error(
            f"{where}not a {fmt} document (format={doc.get('format')!r})"
        )
    if doc.get("version") not in versions:
        expected = " or ".join(str(v) for v in versions)
        raise error(
            f"{where}unsupported {fmt.removeprefix('repro-')} version "
            f"{doc.get('version')!r}; {fmt} expects {expected}"
        )
    return doc


def document_fields(doc: dict) -> dict:
    """A checked document's body: every field but the header."""
    return {k: v for k, v in doc.items() if k not in _HEADER_KEYS}


def header_line(fmt: str, version: int) -> str:
    """The header line of a ``repro-*`` JSONL log (no newline)."""
    return json.dumps({"format": fmt, "version": version})


def write_atomic(path: str | Path, text: str) -> None:
    """Publish ``text`` at ``path``: readers see the old file or the new.

    Writes a pid-unique temp file in the same directory (same
    filesystem, so the replace is a rename, not a copy), then one
    :func:`os.replace` over the target.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class LogBody(NamedTuple):
    """What :meth:`JsonlLog.read` finds in a log file."""

    #: The raw header line; ``None`` for a missing or empty file.
    header: str | None
    #: The complete (newline-terminated) record lines after the header.
    lines: list[str]
    #: A final line cut before its newline, or ``None``.
    torn: str | None


def parse_record(
    line: str, check: Callable[[object], str | None] | None = None
) -> tuple[object, str | None]:
    """Parse one log line: ``(record, None)`` or ``(…, why it is bad)``.

    ``check(record)`` returns why a parsed record breaks its schema, or
    ``None`` when it is fine.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None, "invalid JSON"
    return record, None if check is None else check(record)


class JsonlLog:
    """One append-only ``repro-*`` JSONL log: a header, one record per line.

    Parameters
    ----------
    path:
        The log file; created with its header line on first append.
    fmt, versions:
        The header this log accepts; new files get ``versions[-1]``.
    """

    def __init__(
        self, path: str | Path, fmt: str, versions: tuple[int, ...]
    ) -> None:
        self.path = Path(path)
        self.fmt = fmt
        self.versions = versions
        self._dir_made = False
        self._tail_checked = False

    def read(self, *, required: bool = False) -> LogBody:
        """Split the file into header, complete lines and a torn tail.

        A missing or empty file has no header, unless ``required``: then
        a missing file raises :class:`FileNotFoundError` and an empty
        one :class:`ReproError`.  A lone header line is accepted with or
        without its newline.  Raises :class:`ReproError` when the header
        is not a ``fmt`` document of an accepted version.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            if required:
                raise
            text = ""
        lines = text.split("\n")
        torn = lines.pop() or None  # "" after a final newline
        if not lines:
            if torn is None:
                if required:
                    raise ReproError(f"{self.path}: empty {self.fmt} file")
                return LogBody(None, [], None)
            lines, torn = [torn], None
        parse_document(lines[0], self.fmt, self.versions, source=self.path)
        return LogBody(lines[0], lines[1:], torn)

    def records(
        self,
        check: Callable[[object], str | None] | None = None,
        what: str = "record",
        *,
        required: bool = False,
    ) -> Iterator:
        """Yield every complete record, parsed; skip a torn final line.

        A complete line that is not JSON, or that ``check`` rejects (see
        :func:`parse_record`), raises :class:`ReproError` naming the path
        and line — wherever it is, the final line included.
        ``required`` is passed to :meth:`read`.
        """
        lines = self.read(required=required).lines
        for lineno, line in enumerate(lines, start=2):
            record, reason = parse_record(line, check)
            if reason is not None:
                raise ReproError(
                    f"{self.path}: corrupt {what} on line {lineno} ({reason})"
                )
            yield record

    def count(self) -> int:
        """Complete lines minus the header, without parsing any JSON."""
        try:
            return max(0, self.path.read_bytes().count(b"\n") - 1)
        except FileNotFoundError:
            return 0

    def append(self, line: str) -> None:
        """Append one record line and flush it (:meth:`extend`)."""
        self.extend([line])

    def extend(
        self,
        lines: Sequence[str],
        written: Callable[[int], None] | None = None,
    ) -> None:
        """Append record lines through one open of the file.

        Writes the header first when the file is missing or empty.  The
        first append of an instance to a non-empty file cuts a torn
        final line, so the records start on a line boundary instead of
        gluing onto the torn bytes; later appends follow this instance's
        own complete lines and skip the check.  ``written(i)``, when
        given, runs once line ``i`` is flushed, so a caller that stops
        in it leaves exactly lines ``0 … i`` behind.  No lines, no file
        access.
        """
        if not lines:
            return
        if not self._dir_made:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._dir_made = True
        with open(self.path, "a+b") as fh:
            size = fh.seek(0, 2)
            if size and not self._tail_checked:
                self._tail_checked = True
                fh.seek(-1, 2)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    size = fh.read().rfind(b"\n") + 1  # 0: no newline
                    fh.truncate(size)
            if not size:
                fh.write(
                    (header_line(self.fmt, self.versions[-1]) + "\n").encode()
                )
            for i, line in enumerate(lines):
                fh.write(line.encode("utf-8") + b"\n")
                if written is not None:
                    fh.flush()
                    written(i)

    def rewrite(self, lines: Iterable[str], header: str | None = None) -> None:
        """Atomically replace the log with ``header`` and ``lines``.

        ``header`` is a raw header line (e.g. :attr:`LogBody.header`, to
        keep an old version); the default is a fresh current one.
        """
        if header is None:
            header = header_line(self.fmt, self.versions[-1])
        write_atomic(
            self.path, "".join(f"{ln}\n" for ln in (header, *lines))
        )


def _load_fields(text: str, fmt: str, versions: tuple[int, ...]) -> dict:
    """The body of a header-checked document; this module's loaders
    raise :class:`InvalidNetworkError` on malformed documents."""
    return document_fields(
        parse_document(text, fmt, versions, error=InvalidNetworkError)
    )


def dumps_network(net: MIDigraph, *, indent: int | None = None) -> str:
    """Serialize a network to a JSON string."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "n_stages": net.n_stages,
        "size": net.size,
        "connections": [
            {"f": conn.f.tolist(), "g": conn.g.tolist()}
            for conn in net.connections
        ],
    }
    return json.dumps(doc, indent=indent)


def dump_network(net: MIDigraph, path: str | Path, *, indent: int = 2) -> None:
    """Serialize a network to a JSON file."""
    Path(path).write_text(dumps_network(net, indent=indent), encoding="utf-8")


def loads_network(text: str) -> MIDigraph:
    """Parse a network from a JSON string (with full validation).

    Raises :class:`InvalidNetworkError` on malformed documents and lets the
    :class:`~repro.core.connection.Connection` validator reject tables that
    break the in-degree contract.
    """
    doc = _load_fields(text, _FORMAT, (_VERSION,))
    conns = doc.get("connections")
    if not isinstance(conns, list) or not conns:
        raise InvalidNetworkError("missing or empty 'connections' list")
    built = []
    for i, entry in enumerate(conns):
        if not isinstance(entry, dict) or "f" not in entry or "g" not in entry:
            raise InvalidNetworkError(
                f"connection {i} must be an object with 'f' and 'g'"
            )
        built.append(Connection(entry["f"], entry["g"]))
    net = MIDigraph(built)
    for field, expected in (("n_stages", net.n_stages), ("size", net.size)):
        if doc.get(field) not in (None, expected):
            raise InvalidNetworkError(
                f"header says {field}={doc[field]}, tables give {expected}"
            )
    return net


def load_network(path: str | Path) -> MIDigraph:
    """Parse a network from a JSON file."""
    return loads_network(Path(path).read_text(encoding="utf-8"))


def dumps_report(report: "SimReport", *, indent: int | None = None) -> str:
    """Serialize a simulation report to a JSON string."""
    doc = {
        "format": _REPORT_FORMAT,
        "version": _REPORT_VERSION,
        **report.to_dict(),
    }
    return json.dumps(doc, indent=indent)


def dump_report(
    report: "SimReport", path: str | Path, *, indent: int = 2
) -> None:
    """Serialize a simulation report to a JSON file."""
    Path(path).write_text(dumps_report(report, indent=indent), encoding="utf-8")


def loads_report(text: str) -> "SimReport":
    """Parse a simulation report from a JSON string."""
    from repro.sim.metrics import SimReport

    fields = _load_fields(text, _REPORT_FORMAT, (_REPORT_VERSION,))
    try:
        return SimReport.from_dict(fields)
    except (TypeError, KeyError, ValueError) as err:
        raise InvalidNetworkError(f"malformed report fields: {err}") from err


def load_report(path: str | Path) -> "SimReport":
    """Parse a simulation report from a JSON file."""
    return loads_report(Path(path).read_text(encoding="utf-8"))


def dumps_campaign(spec: "CampaignSpec", *, indent: int | None = None) -> str:
    """Serialize a campaign sweep spec to a JSON string."""
    doc = {
        "format": _CAMPAIGN_FORMAT,
        "version": _CAMPAIGN_VERSION,
        **spec.to_dict(),
    }
    return json.dumps(doc, indent=indent)


def dump_campaign(
    spec: "CampaignSpec", path: str | Path, *, indent: int = 2
) -> None:
    """Serialize a campaign sweep spec to a JSON file."""
    Path(path).write_text(
        dumps_campaign(spec, indent=indent), encoding="utf-8"
    )


def loads_campaign(text: str) -> "CampaignSpec":
    """Parse a campaign sweep spec from a JSON string (with validation)."""
    from repro.campaign.spec import CampaignSpec

    fields = _load_fields(text, _CAMPAIGN_FORMAT, (_CAMPAIGN_VERSION,))
    return CampaignSpec.from_dict(fields)


def load_campaign(path: str | Path) -> "CampaignSpec":
    """Parse a campaign sweep spec from a JSON file."""
    return loads_campaign(Path(path).read_text(encoding="utf-8"))


def dumps_scenario(
    spec: "ScenarioSpec", *, indent: int | None = None
) -> str:
    """Serialize a scenario spec to a JSON string."""
    doc = {
        "format": _SCENARIO_FORMAT,
        "version": _SCENARIO_VERSION,
        **spec.to_spec(),
    }
    return json.dumps(doc, indent=indent)


def dump_scenario(
    spec: "ScenarioSpec", path: str | Path, *, indent: int = 2
) -> None:
    """Serialize a scenario spec to a JSON file."""
    Path(path).write_text(
        dumps_scenario(spec, indent=indent), encoding="utf-8"
    )


def loads_scenario(text: str) -> "ScenarioSpec":
    """Parse a scenario spec from a JSON string (with validation)."""
    from repro.spec.scenario import ScenarioSpec

    fields = _load_fields(text, _SCENARIO_FORMAT, (_SCENARIO_VERSION,))
    try:
        return ScenarioSpec.from_spec(fields)
    except ReproError:
        raise
    except (TypeError, KeyError, ValueError) as err:
        raise InvalidNetworkError(
            f"malformed scenario fields: {err}"
        ) from err


def load_scenario(path: str | Path) -> "ScenarioSpec":
    """Parse a scenario spec from a JSON file."""
    return loads_scenario(Path(path).read_text(encoding="utf-8"))
