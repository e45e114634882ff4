"""Conformance of every versioned ``repro-*`` reader to one file convention.

Each reader goes through :mod:`repro.io`: the same header check for
whole documents and log headers, and for the three append-only logs
(result store, quarantine sidecar, trace) the same torn-tail rule — a
final line is torn if and only if it lacks its trailing newline.  A
torn line is skipped; a complete line that fails its check raises.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import QuarantineStore, ResultStore, TaskFailure
from repro.campaign.heartbeat import HEARTBEAT_FORMAT, read_heartbeat
from repro.campaign.reliability import loads_sweep
from repro.core.errors import InvalidNetworkError, ReproError
from repro.io import (
    loads_campaign,
    loads_network,
    loads_report,
    loads_scenario,
)
from repro.obs.baseline import BASELINE_FORMAT, load_baseline
from repro.obs.trace import TRACE_FORMAT, read_trace


def _from_file(reader):
    """A text-taking call of a path reader: the text goes in a file."""

    def call(tmp_path, text):
        path = tmp_path / "doc"
        path.write_text(text, encoding="utf-8")
        return reader(path)

    return call


def _from_text(reader):
    return lambda _tmp_path, text: reader(text)


#: (format, reader, the ReproError subclass its loader raises).
READERS = [
    ("repro-midigraph", _from_text(loads_network), InvalidNetworkError),
    ("repro-simreport", _from_text(loads_report), InvalidNetworkError),
    ("repro-campaign", _from_text(loads_campaign), InvalidNetworkError),
    ("repro-scenario", _from_text(loads_scenario), InvalidNetworkError),
    ("repro-reliability-sweep", _from_text(loads_sweep), ReproError),
    (HEARTBEAT_FORMAT, _from_file(read_heartbeat), ReproError),
    (BASELINE_FORMAT, _from_file(load_baseline), ReproError),
    (TRACE_FORMAT, _from_file(read_trace), ReproError),
    (
        "repro-campaign-store",
        _from_file(lambda p: list(ResultStore(p).records())),
        ReproError,
    ),
    (
        "repro-campaign-quarantine",
        _from_file(lambda p: list(QuarantineStore(p).records())),
        ReproError,
    ),
]

#: The broken headers the per-module tests already use ("{torn" from
#: the heartbeat tests, the "other" format from the baseline and
#: heartbeat tests, version 99 from every module).
BROKEN = {
    "invalid JSON": lambda fmt: "{torn\n",
    "wrong format": lambda fmt: '{"format": "other", "version": 1}\n',
    "unsupported version": lambda fmt: json.dumps(
        {"format": fmt, "version": 99}
    ) + "\n",
}


@pytest.mark.parametrize(
    ("fmt", "read", "error"), READERS, ids=[r[0] for r in READERS]
)
@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_header_names_the_format(tmp_path, fmt, read, error, case):
    with pytest.raises(error, match=fmt):
        read(tmp_path, BROKEN[case](fmt))


def test_every_reader_is_covered():
    assert len(READERS) == 10
    assert len({fmt for fmt, _read, _error in READERS}) == 10


# -- the three logs: one torn-tail rule -------------------------------------


def _store_line(h: str) -> str:
    store_record = {"hash": h, "scenario": {}, "report": {}}
    return json.dumps(store_record, sort_keys=True)


def _failure_line(h: str) -> str:
    failure = TaskFailure(
        hash=h, scenario={}, kind="raise", error_type="E", message="m"
    )
    return json.dumps(failure.to_dict(), sort_keys=True)


def _event_line(h: str) -> str:
    return json.dumps({"ev": "metrics", "pid": 1, "ts": 0.0, "metrics": {h: 1}})


#: (format, record line maker, reader -> comparable list, a complete
#: final line that fails its check).
LOGS = [
    (
        "repro-campaign-store",
        _store_line,
        lambda p: [r["hash"] for r in ResultStore(p).records()],
        '{"hsh": "cc"}',
    ),
    (
        "repro-campaign-quarantine",
        _failure_line,
        lambda p: [f.hash for f in QuarantineStore(p).records()],
        '{"hash": "ab", "scenario": {}}',
    ),
    (
        TRACE_FORMAT,
        _event_line,
        lambda p: [next(iter(e["metrics"])) for e in read_trace(p)],
        "not json",
    ),
]


def _write_log(path, fmt, lines, tail=""):
    header = json.dumps({"format": fmt, "version": 1})
    path.write_text(
        "".join(f"{ln}\n" for ln in (header, *lines)) + tail,
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    ("fmt", "line", "read", "bad"), LOGS, ids=[log[0] for log in LOGS]
)
class TestTornTailRule:
    def test_final_line_without_newline_is_skipped(
        self, tmp_path, fmt, line, read, bad
    ):
        path = tmp_path / "log.jsonl"
        whole = line("bb")
        for tail in (whole[: len(whole) // 2], whole):
            _write_log(path, fmt, [line("aa")], tail=tail)
            assert read(path) == ["aa"], tail

    def test_complete_bad_final_line_raises(
        self, tmp_path, fmt, line, read, bad
    ):
        path = tmp_path / "log.jsonl"
        _write_log(path, fmt, [line("aa"), bad])
        with pytest.raises(ReproError, match="line 3"):
            read(path)

    def test_complete_bad_middle_line_raises(
        self, tmp_path, fmt, line, read, bad
    ):
        path = tmp_path / "log.jsonl"
        _write_log(path, fmt, [line("aa"), bad, line("bb")])
        with pytest.raises(ReproError, match="line 3"):
            read(path)
