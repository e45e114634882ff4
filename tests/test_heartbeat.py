"""Tests for campaign heartbeats and live watching.

The load-bearing properties: heartbeat documents publish atomically (a
concurrent reader never sees torn JSON), the runner's heartbeats track
real progress and finish with ``complete``, ``watch_campaign`` observes
a run owned by *another process*, and — like every telemetry layer —
heartbeats never change a single store byte.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    dumps_aggregate,
    load_records,
    run_campaign,
)
from repro.campaign import supervisor
from repro.campaign.heartbeat import (
    DEFAULT_INTERVAL,
    HEARTBEAT_ENV,
    HEARTBEAT_FORMAT,
    HEARTBEAT_VERSION,
    HeartbeatWriter,
    default_interval,
    heartbeat_path,
    read_heartbeat,
    render_watch_line,
    snapshot,
    watch_campaign,
)
from repro.core.errors import ReproError
from repro.obs import metrics
from repro.sim.kernels import resolve_backend


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.stop()
    metrics().reset()
    yield
    obs.stop()
    metrics().reset()


def tiny_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        topologies=("omega", "baseline"),
        stages=(3,),
        rates=(0.8,),
        seeds=(0, 1),
        cycles=30,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestInterval:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(HEARTBEAT_ENV, raising=False)
        assert default_interval() == DEFAULT_INTERVAL

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "2.5")
        assert default_interval() == 2.5

    def test_env_disable_and_garbage(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "0")
        assert default_interval() == 0.0
        monkeypatch.setenv(HEARTBEAT_ENV, "-1")
        assert default_interval() == -1.0
        # A malformed value fails loudly instead of disabling heartbeats.
        monkeypatch.setenv(HEARTBEAT_ENV, "often")
        with pytest.raises(ReproError, match=HEARTBEAT_ENV):
            default_interval()

    def test_malformed_env_fails_the_run_before_work(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(HEARTBEAT_ENV, "1s")
        with pytest.raises(ReproError, match=HEARTBEAT_ENV):
            run_campaign(tiny_spec(), tmp_path / "s.jsonl")
        assert not (tmp_path / "s.jsonl").exists()


class TestWriter:
    def test_document_schema(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        hb = HeartbeatWriter(
            store, total=10, skipped=2, workers=3, batch=16,
            backend="numpy", interval=0.0,
        )
        hb.note_worker(111, scenarios=4, busy_s=0.5)
        assert hb.beat(6) is True
        doc = read_heartbeat(heartbeat_path(store))
        assert doc["format"] == HEARTBEAT_FORMAT
        assert doc["version"] == HEARTBEAT_VERSION
        assert doc["status"] == "running"
        assert doc["total"] == 10 and doc["done"] == 6
        assert doc["pending"] == 4 and doc["skipped"] == 2
        assert doc["workers"] == 3 and doc["backend"] == "numpy"
        assert doc["rate_per_s"] > 0 and doc["eta_s"] is not None
        worker = doc["worker_liveness"]["111"]
        assert worker["scenarios"] == 4 and worker["groups"] == 1

    def test_rate_limit_and_force(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        hb = HeartbeatWriter(store, total=4, interval=3600.0)
        assert hb.beat(1) is True
        assert hb.beat(2) is False  # inside the interval
        assert hb.beat(3, force=True) is True
        assert read_heartbeat(heartbeat_path(store))["done"] == 3

    def test_finish_always_writes(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        hb = HeartbeatWriter(store, total=4, interval=3600.0)
        hb.beat(1)
        hb.finish(4)
        doc = read_heartbeat(heartbeat_path(store))
        assert doc["status"] == "complete" and doc["done"] == 4

    def test_atomic_under_concurrent_reads(self, tmp_path):
        """A reader hammering the file never sees a torn document."""
        store = tmp_path / "sweep.jsonl"
        hb = HeartbeatWriter(store, total=1000, interval=0.0)
        hb.beat(0, force=True)
        path = heartbeat_path(store)
        stop = threading.Event()
        failures: list[BaseException] = []

        def reader():
            while not stop.is_set():
                try:
                    doc = read_heartbeat(path)
                    assert doc is not None
                    assert doc["format"] == HEARTBEAT_FORMAT
                except BaseException as err:  # noqa: BLE001
                    failures.append(err)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for done in range(1, 500):
            hb.beat(done, force=True)
        stop.set()
        for t in threads:
            t.join()
        assert not failures


class TestRead:
    def test_absent_is_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "nope.json") is None

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "x.heartbeat.json"
        path.write_text("{torn", encoding="utf-8")
        with pytest.raises(ReproError, match="not valid JSON"):
            read_heartbeat(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.heartbeat.json"
        path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
        with pytest.raises(ReproError, match="not a"):
            read_heartbeat(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "x.heartbeat.json"
        path.write_text(
            json.dumps({"format": HEARTBEAT_FORMAT, "version": 99}),
            encoding="utf-8",
        )
        with pytest.raises(ReproError, match="version"):
            read_heartbeat(path)


class TestRunnerIntegration:
    def test_run_publishes_and_completes(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        summary = run_campaign(tiny_spec(), store, heartbeat=0.0001)
        doc = read_heartbeat(heartbeat_path(store))
        assert doc["status"] == "complete"
        assert doc["done"] == doc["total"] == summary["total"]
        assert doc["pending"] == 0
        assert doc["store"] == str(store)
        assert doc["backend"] in ("numpy", "numba")
        liveness = doc["worker_liveness"]
        assert sum(r["scenarios"] for r in liveness.values()) == 4

    def test_disabled_writes_nothing(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0)
        assert not heartbeat_path(store).exists()

    def test_env_disables_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "0")
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store)
        assert not heartbeat_path(store).exists()

    def test_resume_completed_run_stamps_complete(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0.0001)
        heartbeat_path(store).unlink()
        run_campaign(tiny_spec(), store, resume=True, heartbeat=0.0001)
        doc = read_heartbeat(heartbeat_path(store))
        assert doc["status"] == "complete" and doc["pending"] == 0

    def test_store_bytes_identical_with_and_without(self, tmp_path):
        """Heartbeats are telemetry: the store is byte-for-byte the
        same with them on or off."""
        on = tmp_path / "on.jsonl"
        off = tmp_path / "off.jsonl"
        run_campaign(tiny_spec(), on, heartbeat=0.0001)
        run_campaign(tiny_spec(), off, heartbeat=0)
        assert dumps_aggregate(load_records(on)) == dumps_aggregate(
            load_records(off)
        )
        assert on.read_bytes() == off.read_bytes()


class TestLedger:
    """One ledger per run: the summary and the heartbeat read the same
    rows, and a complete resume runs the normal path."""

    def test_complete_resume_starts_no_worker(self, tmp_path, monkeypatch):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0)

        def no_pool(*args, **kwargs):
            raise AssertionError("a complete resume started a worker pool")

        monkeypatch.setattr(supervisor, "run_supervised", no_pool)
        expected = {
            "total": 4, "skipped": 4, "ran": 0,
            "quarantined": 0, "quarantined_skipped": 0, "quarantine": None,
            "faults": {key: 0 for key in supervisor.STAT_KEYS},
            "store": str(store),
            "compile_cache": {"hits": 0, "misses": 0},
            "traffic_cache": {"hits": 0, "misses": 0},
        }
        summary = run_campaign(
            tiny_spec(), store, workers=2, resume=True, heartbeat=0
        )
        assert summary == expected
        with obs.tracing() as tr:
            summary = run_campaign(
                tiny_spec(), store, workers=2, resume=True,
                heartbeat=0.0001,
            )
        assert summary.pop("telemetry")["workers"] == {}
        assert summary == expected
        doc = read_heartbeat(heartbeat_path(store))
        assert doc["status"] == "complete"
        assert doc["done"] == doc["total"] == 4 and doc["pending"] == 0
        assert doc["backend"] == resolve_backend(None)
        obs.validate_trace_events(tr.events)
        names = [e["name"] for e in tr.events if e["ev"] == "span"]
        assert names.count("campaign") == 1 and "group" not in names

    def test_disabled_heartbeat_keeps_worker_telemetry(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        with obs.tracing():
            summary = run_campaign(
                tiny_spec(), store, workers=2, batch=1, heartbeat=0
            )
        rows = summary["telemetry"]["workers"]
        assert rows and sum(r["scenarios"] for r in rows.values()) == 4
        assert sum(r["groups"] for r in rows.values()) == 4
        assert not heartbeat_path(store).exists()

    def test_liveness_rows_are_the_summary_rows(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        with obs.tracing():
            summary = run_campaign(
                tiny_spec(), store, workers=2, batch=1, heartbeat=0.0001
            )
        doc = read_heartbeat(heartbeat_path(store))

        def figures(rows):
            return {
                pid: (r["groups"], r["scenarios"], r["busy_s"])
                for pid, r in rows.items()
            }

        assert figures(doc["worker_liveness"]) == figures(
            summary["telemetry"]["workers"]
        )
        assert sum(r["scenarios"] for r in doc["worker_liveness"].values()) == 4


class TestSnapshot:
    def test_waiting_then_running_then_complete(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        assert snapshot(store)["status"] == "waiting"
        run_campaign(tiny_spec(), store, heartbeat=0.0001)
        snap = snapshot(store)
        assert snap["status"] == "complete"
        assert snap["done"] == snap["records"] == 4

    def test_store_without_heartbeat(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0)
        snap = snapshot(store)
        assert snap["status"] == "running"  # no pulse, but records exist
        assert snap["records"] == 4 and snap["heartbeat"] is None


def _run_sweep(store: str) -> None:
    run_campaign(tiny_spec(), store, heartbeat=0.001)


class TestWatch:
    def test_watch_completed_run(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0.0001)
        snaps = list(watch_campaign(store, interval=0.01))
        assert len(snaps) == 1 and snaps[0]["status"] == "complete"

    def test_watch_times_out(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        snaps = list(watch_campaign(store, interval=0.01, timeout=0.05))
        assert snaps and snaps[-1]["status"] == "waiting"

    def test_watch_live_run_in_separate_process(self, tmp_path):
        """The acceptance walk: a run in another process is observable
        from this one until it reports complete."""
        store = tmp_path / "sweep.jsonl"
        proc = multiprocessing.Process(
            target=_run_sweep, args=(str(store),)
        )
        proc.start()
        try:
            snaps = list(
                watch_campaign(store, interval=0.02, timeout=120)
            )
        finally:
            proc.join(timeout=120)
        assert proc.exitcode == 0
        assert snaps[-1]["status"] == "complete"
        assert snaps[-1]["done"] == snaps[-1]["total"] == 4
        assert snaps[-1]["records"] == 4

    def test_render_watch_line(self, tmp_path):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0.0001)
        line = render_watch_line(snapshot(store))
        assert "4/4" in line and "[complete]" in line
        assert "workers 1 live" in line

    def test_render_without_heartbeat(self, tmp_path):
        line = render_watch_line(
            {"status": "waiting", "done": 0, "total": None,
             "records": 0, "heartbeat": None}
        )
        assert "0 record(s) stored" in line and "[waiting]" in line

    @staticmethod
    def _beat(workers: int, busy: list) -> dict:
        now = 1000.0
        return {
            "status": "running", "done": 6, "total": 8, "records": 6,
            "heartbeat": {
                "rate_per_s": 1.5, "eta_s": 1.3, "updated_ts": now,
                "task_timeout": None, "workers": workers,
                "elapsed_s": 4.0,
                "worker_liveness": {
                    str(pid): {"busy_s": b, "last_seen": now}
                    for pid, b in enumerate(busy)
                },
            },
        }

    def test_render_parallel_efficiency(self):
        # Busy 3.0 + 2.2 s over 4 s on 2 workers: 5.2 / 8.
        line = render_watch_line(self._beat(2, [3.0, 2.2]))
        assert "workers 2 live  eff 65%" in line
        # A respawned worker adds a row, not a pool slot.
        line = render_watch_line(self._beat(2, [3.0, 1.0, 2.0]))
        assert "eff 75%" in line

    def test_render_inline_run_has_no_efficiency(self):
        line = render_watch_line(self._beat(1, [3.0]))
        assert "workers 1 live" in line and "eff" not in line


class TestWatchCli:
    def test_once_on_complete_run(self, tmp_path, capsys):
        from repro.__main__ import main

        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store, heartbeat=0.0001)
        capsys.readouterr()
        assert main([
            "campaign", "watch", "--store", str(store), "--once",
        ]) == 0
        assert "[complete]" in capsys.readouterr().out

    def test_once_on_absent_run_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main([
            "campaign", "watch", "--store", str(tmp_path / "no.jsonl"),
            "--once",
        ]) == 1
        assert "[waiting]" in capsys.readouterr().out
