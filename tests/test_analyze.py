"""Tests for the trace analytics tier (:mod:`repro.obs.analyze`).

Two kinds of coverage: synthetic event lists with hand-picked
timestamps, where forest shape, critical paths and self-times have
exact expected values — and real traces recorded from simulations and
campaigns, where the analytics must digest whatever the tracer actually
emits, including the torn tail of a killed run.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.campaign import CampaignSpec, run_campaign
from repro.obs import metrics, read_trace, write_trace
from repro.obs.analyze import (
    build_forest,
    compile_cache_stats,
    critical_path,
    diff_stats,
    load_events,
    render_critical_path,
    render_diff,
    render_summary,
    render_trace_metrics,
    render_tree,
    span_stats,
    worker_timeline,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.stop()
    metrics().reset()
    yield
    obs.stop()
    metrics().reset()


def span_ev(
    name, *, id, pid, ts, dur, parent=None, attrs=None, counters=None
):
    return {
        "ev": "span", "name": name, "id": id, "parent": parent,
        "pid": pid, "ts": ts, "dur": dur,
        "attrs": attrs or {}, "counters": counters or {},
    }


def campaign_events():
    """A hand-built two-worker campaign trace with exact timings.

    Parent pid 100 runs ``campaign`` [0, 10] with two ``store`` spans;
    worker 200 runs a ``group`` [0.5, 6.5] wrapping ``simulate_batch``
    and ``run_batch``; worker 300 a shorter ``group`` [0.5, 4.5].
    Events appear in close order (children before parents), as the
    tracer writes them.
    """
    return [
        # worker 300 (finishes first)
        span_ev("run_batch", id=3, parent=2, pid=300, ts=0.7, dur=3.0),
        span_ev("simulate_batch", id=2, parent=1, pid=300, ts=0.6,
                dur=3.8, attrs={"scenarios": 2}),
        span_ev("group", id=1, parent=None, pid=300, ts=0.5, dur=4.0,
                attrs={"scenarios": 2}),
        # worker 200 (the long one)
        span_ev("run_batch", id=3, parent=2, pid=200, ts=0.8, dur=5.0),
        span_ev("simulate_batch", id=2, parent=1, pid=200, ts=0.6,
                dur=5.8, attrs={"scenarios": 3}),
        span_ev("group", id=1, parent=None, pid=200, ts=0.5, dur=6.0,
                attrs={"scenarios": 3}),
        # parent pid 100
        span_ev("store", id=2, parent=1, pid=100, ts=4.6, dur=0.1),
        span_ev("store", id=3, parent=1, pid=100, ts=6.6, dur=0.1),
        span_ev("campaign", id=1, parent=None, pid=100, ts=0.0, dur=10.0,
                attrs={"total": 5, "workers": 2}),
        {
            "ev": "metrics", "pid": 100, "ts": 10.0,
            "metrics": {
                "counters": {
                    "campaign.scenarios": 5,
                    "compile_cache.hits": 3,
                    "compile_cache.misses": 2,
                },
                "gauges": {},
                "histograms": {},
            },
        },
    ]


class TestForest:
    def test_roots_and_children(self):
        roots = build_forest(campaign_events())
        assert [(r.name, r.pid) for r in roots] == [
            ("campaign", 100), ("group", 200), ("group", 300),
        ]
        campaign = roots[0]
        assert [c.name for c in campaign.children] == ["store", "store"]
        group200 = roots[1]
        assert group200.children[0].name == "simulate_batch"
        assert group200.children[0].children[0].name == "run_batch"

    def test_orphan_promoted_to_root(self):
        # The killed-run shape: a child closed, its parent never did.
        events = [
            span_ev("run_batch", id=2, parent=1, pid=7, ts=1.0, dur=2.0),
        ]
        roots = build_forest(events)
        assert len(roots) == 1 and roots[0].name == "run_batch"

    def test_deterministic_order(self):
        events = campaign_events()
        a = build_forest(events)
        b = build_forest(list(reversed(events)))
        assert [(r.name, r.pid) for r in a] == [(r.name, r.pid) for r in b]

    def test_self_time(self):
        roots = build_forest(campaign_events())
        campaign = roots[0]
        assert campaign.self_time() == pytest.approx(10.0 - 0.2)
        leaf = roots[1].children[0].children[0]
        assert leaf.self_time() == pytest.approx(leaf.dur)


class TestSpanStats:
    def test_aggregates(self):
        stats = span_stats(campaign_events())
        group = stats["group"]
        assert group["count"] == 2
        assert group["total_s"] == pytest.approx(10.0)
        assert group["min_s"] == pytest.approx(4.0)
        assert group["max_s"] == pytest.approx(6.0)
        # group self time excludes the nested simulate_batch
        assert group["self_s"] == pytest.approx(
            (6.0 - 5.8) + (4.0 - 3.8)
        )

    def test_multi_pid_span_totals_merge(self):
        # Per-name totals merge across pids.
        totals = span_stats(campaign_events())
        assert totals["group"]["count"] == 2
        assert totals["run_batch"]["total_s"] == pytest.approx(8.0)
        assert totals["store"]["count"] == 2


class TestCriticalPath:
    def test_campaign_chain_crosses_pids(self):
        path = critical_path(campaign_events())
        assert [(s["name"], s["pid"]) for s in path] == [
            ("campaign", 100),
            ("group", 200),
            ("simulate_batch", 200),
            ("run_batch", 200),
        ]
        assert path[0]["frac_of_root"] == pytest.approx(1.0)
        assert path[-1]["frac_of_root"] == pytest.approx(0.5)

    def test_no_worker_to_worker_hops(self):
        # Sibling workers may mutually "enclose" within the clock
        # slack; the walk must neither loop nor hop worker→worker.
        events = [
            span_ev("group", id=1, parent=None, pid=2, ts=0.50,
                    dur=1.00),
            span_ev("group", id=1, parent=None, pid=3, ts=0.51,
                    dur=0.98),
            span_ev("campaign", id=1, parent=None, pid=1, ts=0.0,
                    dur=2.0),
        ]
        path = critical_path(events)
        assert [s["pid"] for s in path] == [1, 2]

    def test_empty(self):
        assert critical_path([]) == []

    def test_single_process_trace(self):
        events = [
            span_ev("traffic", id=2, parent=1, pid=9, ts=0.1, dur=0.2),
            span_ev("run", id=3, parent=1, pid=9, ts=0.3, dur=0.6),
            span_ev("simulate", id=1, parent=None, pid=9, ts=0.0, dur=1.0),
        ]
        path = critical_path(events)
        assert [s["name"] for s in path] == ["simulate", "run"]


class TestWorkerTimeline:
    def test_rows(self):
        rows = worker_timeline(campaign_events())
        by_pid = {r["pid"]: r for r in rows}
        assert by_pid[100]["parent"] is True
        assert by_pid[100]["busy_s"] == pytest.approx(10.0)
        # scenarios counted once per chain, not per nested span
        assert by_pid[200]["scenarios"] == 3
        assert by_pid[300]["scenarios"] == 2
        assert by_pid[200]["utilization"] == pytest.approx(0.6)

    def test_empty(self):
        assert worker_timeline([]) == []


class TestMetricsViews:
    def test_compile_cache_stats(self):
        cache = compile_cache_stats(campaign_events())
        assert cache == {
            "hits": 3, "misses": 2, "lookups": 5, "hit_rate": 0.6,
        }

    def test_no_metrics_event(self):
        assert compile_cache_stats([]) is None


class TestDiff:
    def test_deltas_and_ratio(self):
        a = [span_ev("run", id=1, pid=1, ts=0.0, dur=1.0)]
        b = [
            span_ev("run", id=1, pid=1, ts=0.0, dur=2.0),
            span_ev("store", id=2, pid=1, ts=2.0, dur=0.5),
        ]
        rows = diff_stats(a, b)
        assert rows["run"]["ratio_mean"] == pytest.approx(2.0)
        assert rows["run"]["delta_mean_s"] == pytest.approx(1.0)
        assert rows["store"]["a"] is None
        assert rows["store"]["ratio_mean"] is None

    def test_identity(self):
        events = campaign_events()
        rows = diff_stats(events, events)
        assert all(
            row["ratio_mean"] == pytest.approx(1.0)
            for row in rows.values()
        )


class TestRenderers:
    """Renderers are deterministic functions of the event list."""

    def test_summary_deterministic(self):
        events = campaign_events()
        out = render_summary(events, source="fixture")
        assert out == render_summary(events, source="fixture")
        assert "trace: fixture" in out
        assert "campaign" in out and "group" in out
        assert "parent" in out and "worker" in out
        assert "compile cache: 3 hit(s) / 2 miss(es)" in out

    def test_tree_depth_and_sibling_limits(self):
        events = campaign_events()
        full = render_tree(events)
        assert "run_batch" in full
        shallow = render_tree(events, max_depth=1)
        assert "run_batch" not in shallow and "campaign" in shallow
        capped = render_tree(events, max_children=1)
        assert "… and 1 more" in capped

    def test_critical_path_table(self):
        out = render_critical_path(campaign_events())
        assert "campaign" in out and "run_batch" in out
        assert "leaf 'run_batch'" in out
        assert render_critical_path([]) == "no spans in trace"

    def test_diff_table(self):
        events = campaign_events()
        out = render_diff(events, events)
        assert "1.00x" in out

    def test_trace_metrics_table(self):
        out = render_trace_metrics(campaign_events(), source="t.jsonl")
        assert out.startswith("per-phase timings from t.jsonl:")
        assert "counters:" in out
        assert "campaign.scenarios" in out


class TestRealTraces:
    """The analytics digest what the tracer actually writes."""

    def test_simulate_trace_roundtrip(self, tmp_path):
        from repro.sim import UniformTraffic, simulate
        from repro.networks.omega import omega

        path = tmp_path / "t.jsonl"
        with obs.tracing(path):
            simulate(omega(3), UniformTraffic(rate=0.5), cycles=10, seed=0)
        events = load_events(path)
        stats = span_stats(events)
        assert {"simulate", "traffic", "run"} <= set(stats)
        path2 = critical_path(events)
        assert path2[0]["name"] == "simulate"

    def test_torn_tail_killed_campaign_trace(self, tmp_path):
        """A truncated trace still loads, forests, and renders.

        Recreates the killed-run file shape exactly: closed worker
        spans present, the enclosing ``campaign`` span missing (it was
        still open), and a half-written final line.
        """
        spec = CampaignSpec(
            topologies=("omega",), stages=(3,), rates=(0.8,),
            seeds=(0, 1), cycles=20,
        )
        full = tmp_path / "full.jsonl"
        with obs.tracing(full):
            run_campaign(spec, tmp_path / "sweep.jsonl")
        lines = full.read_text(encoding="utf-8").splitlines()
        # Drop every parent-side span (campaign/store close last) and
        # tear the final line mid-JSON.
        kept = [
            ln for ln in lines
            if '"ev": "span"' not in ln
            or json.loads(ln)["name"] not in ("campaign", "store")
            if '"ev": "metrics"' not in ln
        ]
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            "\n".join(kept) + '\n{"ev": "span", "name": "camp',
            encoding="utf-8",
        )
        events = load_events(torn)
        assert all(
            e["name"] != "campaign"
            for e in events if e.get("ev") == "span"
        )
        roots = build_forest(events)
        # the orphaned worker spans were promoted, not dropped
        assert any(r.name in ("group", "simulate_batch") for r in roots)
        out = render_summary(events, source=torn)
        assert "group" in out
        assert render_tree(events)
        assert critical_path(events)

    def test_multi_pid_campaign_trace(self, tmp_path):
        spec = CampaignSpec(
            topologies=("omega", "baseline"), stages=(3,), rates=(0.8,),
            seeds=(0,), cycles=20,
        )
        path = tmp_path / "t.jsonl"
        with obs.tracing(path):
            run_campaign(spec, tmp_path / "sweep.jsonl", workers=2)
        events = load_events(path)
        rows = worker_timeline(events)
        parents = [r for r in rows if r["parent"]]
        assert len(parents) == 1
        assert sum(r["scenarios"] for r in rows) == 2
        chain = critical_path(events)
        assert chain[0]["name"] == "campaign"


class TestObsCli:
    def _trace(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "t.jsonl"
        assert main([
            "--trace", str(path), "simulate", "omega", "3",
            "--cycles", "10", "--seed", "0",
        ]) == 0
        return path

    def test_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace: {path}" in out and "simulate" in out

    def test_tree_and_critical_path(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["obs", "tree", str(path), "--depth", "2"]) == 0
        assert "simulate" in capsys.readouterr().out
        assert main(["obs", "critical-path", str(path)]) == 0
        assert "% of root" in capsys.readouterr().out

    def test_flame_writes_chrome_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._trace(tmp_path)
        out_path = tmp_path / "flame.json"
        assert main([
            "obs", "flame", str(path), "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["traceEvents"]

    def test_diff(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["obs", "diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase deltas" in out and "1.00x" in out

    def test_missing_trace_file(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="cannot read trace file"):
            main(["obs", "summary", str(tmp_path / "nope.jsonl")])


class TestLoadEvents:
    def test_validates_but_allows_orphans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, [
            span_ev("child", id=5, parent=4, pid=1, ts=1.0, dur=1.0),
        ])
        events = load_events(path)
        assert len(events) == 1
        assert read_trace(path) == events

    def test_rejects_garbage(self, tmp_path):
        from repro.core.errors import ReproError

        path = tmp_path / "t.jsonl"
        write_trace(path, [{"ev": "span", "pid": 1, "ts": 0.0}])
        with pytest.raises(ReproError):
            load_events(path)
