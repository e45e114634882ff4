"""Tests for the observability layer: spans, metrics, manifests, logging.

The load-bearing properties: spans nest exactly (a child's interval is
enclosed by its parent's, children close before parents), the
``repro-trace`` JSONL stream round-trips and validates, and — above all
— telemetry is an *execution hint*: spec digests, reports and campaign
stores are byte-identical whether tracing is on or off.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro import obs
from repro.campaign import CampaignSpec, dumps_aggregate, load_records, run_campaign
from repro.core.errors import ReproError
from repro.obs import (
    Metrics,
    RunManifest,
    chrome_trace,
    configure,
    get_logger,
    metrics,
    read_trace,
    validate_trace_events,
    validate_trace_file,
    versions,
    write_trace,
)
from repro.obs.analyze import span_stats
from repro.sim import UniformTraffic, simulate, simulate_batch
from repro.sim.batch import BatchScenario
from repro.spec import NetworkSpec, ScenarioSpec, SimPolicy, TrafficSpec


@pytest.fixture(autouse=True)
def _clean_obs():
    """No test leaks a global tracer or metrics into the next."""
    obs.stop()
    metrics().reset()
    yield
    obs.stop()
    metrics().reset()


def spans_of(events) -> list[dict]:
    return [e for e in events if e.get("ev") == "span"]


def names_of(events) -> list[str]:
    return [e["name"] for e in spans_of(events)]


def tiny_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        topologies=("omega", "baseline"),
        stages=(3,),
        traffic=("uniform",),
        rates=(0.8,),
        faults=(0,),
        seeds=(0, 1),
        cycles=30,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSpans:
    def test_nesting_parents_and_close_order(self):
        with obs.tracing() as tr:
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    pass
                with obs.span("inner2"):
                    pass
        names = names_of(tr.events)
        # Children close (and therefore emit) before their parent.
        assert names == ["inner", "inner2", "outer"]
        by_name = {e["name"]: e for e in spans_of(tr.events)}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner2"]["parent"] == by_name["outer"]["id"]
        assert inner.dur is not None and outer.dur >= inner.dur

    def test_exact_parent_enclosure(self):
        with obs.tracing() as tr:
            with obs.span("a"):
                with obs.span("b"):
                    with obs.span("c"):
                        pass
        validate_trace_events(tr.events)  # checks enclosure with eps

    def test_attrs_and_counters(self):
        with obs.tracing() as tr:
            with obs.span("work", cycles=50, policy="drop") as sp:
                sp.add("offered", 3)
                sp.add("offered", 2)
                sp.set(backend="numpy")
        (ev,) = spans_of(tr.events)
        assert ev["attrs"] == {
            "cycles": 50, "policy": "drop", "backend": "numpy",
        }
        assert ev["counters"] == {"offered": 5}
        assert ev["pid"] == os.getpid()

    def test_out_of_order_close_rejected(self):
        with obs.tracing():
            outer = obs.span("outer")
            inner = obs.span("inner")
            outer.__enter__()
            inner.__enter__()
            with pytest.raises(ReproError, match="out of order"):
                outer.__exit__(None, None, None)

    def test_null_span_when_disabled(self):
        assert not obs.enabled()
        assert obs.active() is None
        assert obs.current_span() is None
        with obs.span("x", a=1) as sp:
            assert sp is obs.span("y")  # the shared no-op instance
            sp.add("n").set(b=2)
        assert sp.dur is None

    def test_current_span_tracks_innermost(self):
        with obs.tracing():
            assert obs.current_span() is None
            with obs.span("outer"):
                assert obs.current_span().name == "outer"
                with obs.span("inner"):
                    assert obs.current_span().name == "inner"
                assert obs.current_span().name == "outer"
            assert obs.current_span() is None


class TestTracerLifecycle:
    def test_start_twice_rejected(self):
        obs.start()
        with pytest.raises(ReproError, match="already active"):
            obs.start()

    def test_stop_returns_tracer_and_uninstalls(self):
        tr = obs.start()
        assert obs.stop() is tr
        assert not obs.enabled()
        assert obs.stop() is None

    def test_reset_forgets_without_closing(self, tmp_path):
        # The fork-safety contract: a worker drops the inherited tracer
        # but must not close (or write) the parent's sink.
        tr = obs.start(tmp_path / "t.jsonl")
        obs.reset()
        assert not obs.enabled()
        assert tr._fh is not None  # parent's handle untouched
        tr.close()

    def test_tracing_scopes_installation(self):
        with obs.tracing() as tr:
            assert obs.active() is tr
        assert not obs.enabled()

    def test_drain_pops_events(self):
        with obs.tracing() as tr:
            with obs.span("a"):
                pass
            got = tr.drain()
            assert names_of(got) == ["a"]
            assert tr.events == []

    def test_ingest_keeps_foreign_pids(self):
        with obs.tracing() as tr:
            foreign = {
                "ev": "span", "name": "w", "id": 1, "parent": None,
                "pid": 99999, "ts": 1.0, "dur": 0.5,
                "attrs": {}, "counters": {},
            }
            tr.ingest([foreign])
        assert tr.events == [foreign]
        validate_trace_events(tr.events)


class TestTraceIO:
    def _make_events(self):
        with obs.tracing() as tr:
            with obs.span("outer", k=1) as sp:
                sp.add("n", 2)
                with obs.span("inner"):
                    pass
            tr.emit_manifest(RunManifest.collect("simulate", ["d1"]))
            tr.emit_metrics({"counters": {"x": 1}})
            return tr.events

    def test_write_read_round_trip(self, tmp_path):
        events = self._make_events()
        path = tmp_path / "t.jsonl"
        write_trace(path, events)
        assert read_trace(path) == events
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "repro-trace", "version": 1}

    def test_file_sink_streams_eagerly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.tracing(path):
            # Header lands before any span closes — a killed run still
            # leaves an identifiable trace file.
            assert "repro-trace" in path.read_text()
            with obs.span("a"):
                pass
            assert '"name": "a"' in json.dumps(read_trace(path)[0])
        events = validate_trace_file(path)
        assert names_of(events) == ["a"]

    def test_torn_tail_tolerated(self, tmp_path):
        events = self._make_events()
        path = tmp_path / "t.jsonl"
        write_trace(path, events)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "span", "name": "torn')  # killed mid-write
        assert read_trace(path) == events

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, self._make_events())
        lines = path.read_text().splitlines()
        lines[1] = "not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError, match="corrupt trace event"):
            read_trace(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            read_trace(path)
        path.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(ReproError, match="not a repro-trace"):
            read_trace(path)
        path.write_text('{"format": "repro-trace", "version": 99}\n')
        with pytest.raises(ReproError, match="unsupported trace version"):
            read_trace(path)


class TestValidation:
    def _span(self, **over) -> dict:
        base = {
            "ev": "span", "name": "s", "id": 1, "parent": None,
            "pid": 1, "ts": 10.0, "dur": 1.0, "attrs": {}, "counters": {},
        }
        base.update(over)
        return base

    def test_bad_kind_rejected(self):
        with pytest.raises(ReproError, match="not a trace event"):
            validate_trace_events([{"ev": "bogus", "pid": 1, "ts": 0.0}])

    def test_duplicate_id_rejected(self):
        with pytest.raises(ReproError, match="duplicate span id"):
            validate_trace_events([self._span(), self._span()])

    def test_same_id_in_other_pid_allowed(self):
        validate_trace_events([self._span(), self._span(pid=2)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(ReproError, match="unknown parent"):
            validate_trace_events([self._span(parent=7)])

    def test_escaping_child_rejected(self):
        parent = self._span(id=1, ts=10.0, dur=1.0)
        child = self._span(id=2, parent=1, ts=10.5, dur=5.0, name="c")
        with pytest.raises(ReproError, match="escapes its parent"):
            validate_trace_events([child, parent])

    def test_negative_duration_rejected(self):
        with pytest.raises(ReproError, match="negative span duration"):
            validate_trace_events([self._span(dur=-0.1)])

    def test_missing_payload_rejected(self):
        with pytest.raises(ReproError, match="manifest payload"):
            validate_trace_events([{"ev": "manifest", "pid": 1, "ts": 0.0}])
        with pytest.raises(ReproError, match="metrics payload"):
            validate_trace_events([{"ev": "metrics", "pid": 1, "ts": 0.0}])


class TestAggregation:
    def test_span_stats(self):
        with obs.tracing() as tr:
            for _ in range(3):
                with obs.span("unit"):
                    pass
            with obs.span("other"):
                pass
        totals = span_stats(tr.events)
        assert set(totals) == {"unit", "other"}
        assert totals["unit"]["count"] == 3
        assert totals["unit"]["total_s"] == pytest.approx(
            3 * totals["unit"]["mean_s"]
        )

    def test_chrome_trace_shape(self):
        with obs.tracing() as tr:
            with obs.span("work", backend="numpy") as sp:
                sp.add("offered", 4)
            tr.emit_manifest(RunManifest.collect("simulate"))
        doc = chrome_trace(tr.events)
        slice_, mark = doc["traceEvents"]
        assert slice_["ph"] == "X" and slice_["name"] == "work"
        assert slice_["dur"] == pytest.approx(
            spans_of(tr.events)[0]["dur"] * 1e6
        )
        assert slice_["args"] == {"backend": "numpy", "offered": 4}
        assert mark["ph"] == "i" and mark["name"] == "manifest"


class TestMetrics:
    def test_instruments(self):
        m = Metrics()
        m.counter("c").add()
        m.counter("c").add(4)
        m.gauge("g").set(2)
        m.gauge("g").set(7)
        h = m.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"] == {
            "count": 3, "total": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_snapshot_keys_sorted(self):
        m = Metrics()
        for name in ("z", "a", "m"):
            m.counter(name).add()
        assert list(m.snapshot()["counters"]) == ["a", "m", "z"]

    def test_merge_semantics(self):
        a, b = Metrics(), Metrics()
        a.counter("c").add(2)
        b.counter("c").add(3)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        b.histogram("empty")  # zero-count histograms don't merge
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5          # counters add
        assert snap["gauges"]["g"] == 9            # gauges last-write
        assert snap["histograms"]["h"] == {        # moments combine
            "count": 2, "total": 6.0, "min": 1.0, "max": 5.0, "mean": 3.0,
        }
        assert "empty" not in snap["histograms"]

    def test_drain_resets(self):
        m = Metrics()
        m.counter("c").add()
        assert bool(m)
        snap = m.drain()
        assert snap["counters"] == {"c": 1}
        assert not bool(m)
        assert m.snapshot()["counters"] == {}

    def test_module_singleton(self):
        assert metrics() is metrics()


class TestManifest:
    def test_collect_and_digest_cap(self):
        digests = [f"d{i:04d}" for i in range(40)]
        man = RunManifest.collect(
            "campaign", digests, backend="numpy",
            timings={"total": 1.5}, workers=4,
        )
        assert man.n_scenarios == 40
        assert len(man.scenarios) == 32          # capped listing
        assert man.extra == {"workers": 4}
        doc = man.to_dict()
        assert doc["kind"] == "campaign"
        assert doc["timings"] == {"total": 1.5}
        json.dumps(doc)  # JSON-ready

    def test_digest_stable_under_order(self):
        a = RunManifest.collect("batch", ["x", "y", "z"])
        b = RunManifest.collect("batch", ["z", "x", "y"])
        assert a.digest == b.digest
        assert a.digest != RunManifest.collect("batch", ["x", "y"]).digest
        assert RunManifest.collect("simulate").digest is None

    def test_versions(self):
        v = versions()
        assert v["repro"] == "1.0.0"
        assert set(v) == {"repro", "python", "numpy", "numba", "platform"}


class TestSimulateTracing:
    def spec(self, seed=0):
        return ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=4),
            traffic=TrafficSpec.of("uniform", 0.5),
            sim=SimPolicy(cycles=50),
            seed=seed,
        )

    def test_traced_simulate_spans_and_manifest(self):
        with obs.tracing() as tr:
            report = simulate(self.spec())
        # A cold compile cache nests a compile_network span inside
        # compile; the phase skeleton is the same either way.
        names = [n for n in names_of(tr.events) if n != "compile_network"]
        assert names == ["traffic", "compile", "run", "simulate"]
        validate_trace_events(tr.events)
        root = spans_of(tr.events)[-1]
        assert root["attrs"]["cycles"] == 50
        assert root["attrs"]["backend"] == "numpy"
        assert root["counters"]["delivered"] == report.delivered
        manifests = [e for e in tr.events if e["ev"] == "manifest"]
        assert len(manifests) == 1
        man = manifests[0]["manifest"]
        assert man["kind"] == "simulate"
        assert man["scenarios"] == [self.spec().digest]
        assert set(man["timings"]) == {"traffic", "compile", "run", "total"}

    def test_nested_simulate_emits_no_manifest(self):
        with obs.tracing() as tr:
            with obs.span("outer"):
                simulate(self.spec())
        assert [e for e in tr.events if e["ev"] == "manifest"] == []
        by_name = {e["name"]: e for e in spans_of(tr.events)}
        assert by_name["simulate"]["parent"] == by_name["outer"]["id"]

    def test_report_timings_from_spans(self):
        untraced = simulate(self.spec())
        assert untraced.timings is None
        with obs.tracing() as tr:
            traced = simulate(self.spec())
        root = spans_of(tr.events)[-1]
        assert traced.timings["total"] == pytest.approx(root["dur"])
        assert traced.timings["run"] <= traced.timings["total"]

    def test_telemetry_is_not_identity(self):
        # The tentpole invariant: tracing changes nothing observable.
        spec = self.spec()
        digest_before = spec.digest
        untraced = simulate(spec).to_dict()
        with obs.tracing():
            traced = simulate(spec).to_dict()
        assert spec.digest == digest_before
        # Execution details, not results.
        assert "timings" not in traced
        assert "elapsed" not in traced
        assert traced == untraced
        assert simulate(spec) == simulate(spec)

    def test_sim_metrics_counters(self):
        with obs.tracing():
            report = simulate(self.spec())
            snap = metrics().snapshot()
        assert snap["counters"]["sim.runs"] == 1
        assert snap["counters"]["sim.delivered"] == report.delivered
        assert snap["histograms"]["sim.cycles_per_s"]["count"] == 1


class TestBatchTracing:
    def test_engine_form_spans(self, omega4):
        scns = [BatchScenario(UniformTraffic(0.5), seed=i) for i in range(3)]
        with obs.tracing() as tr:
            reports = simulate_batch(omega4, scns, cycles=40)
        assert names_of(tr.events) == [
            "traffic", "compile", "run", "run_batch",
        ]
        validate_trace_events(tr.events)
        root = spans_of(tr.events)[-1]
        assert root["attrs"]["scenarios"] == 3
        man = [e for e in tr.events if e["ev"] == "manifest"]
        assert len(man) == 1 and man[0]["manifest"]["kind"] == "batch"
        assert all(r.timings is not None for r in reports)
        snap = metrics().snapshot()
        assert snap["counters"]["sim.batches"] == 1
        assert snap["counters"]["sim.runs"] == 3

    def test_spec_form_manifest_covers_digests(self):
        specs = [
            ScenarioSpec(
                network=NetworkSpec.catalog("omega", n=3),
                traffic=TrafficSpec.of("uniform", 0.5),
                sim=SimPolicy(cycles=30),
                seed=s,
            )
            for s in range(3)
        ]
        with obs.tracing() as tr:
            simulate_batch(specs)
        names = names_of(tr.events)
        assert names[-1] == "simulate_batch"
        assert "run_batch" in names
        (man,) = [e for e in tr.events if e["ev"] == "manifest"]
        assert man["manifest"]["kind"] == "batch"
        assert man["manifest"]["n_scenarios"] == 3
        assert sorted(man["manifest"]["scenarios"]) == sorted(
            s.digest for s in specs
        )

    def test_batch_results_identical_traced(self, omega4):
        scns = [BatchScenario(UniformTraffic(0.8), seed=7)]
        want = simulate_batch(omega4, scns, cycles=40)[0].to_dict()
        with obs.tracing():
            got = simulate_batch(omega4, scns, cycles=40)[0].to_dict()
        assert got == want


class TestCampaignTracing:
    def test_traced_store_identical_to_untraced(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "plain.jsonl", workers=1)
        with obs.tracing():
            run_campaign(spec, tmp_path / "traced.jsonl", workers=1)
        with obs.tracing():
            run_campaign(spec, tmp_path / "pool.jsonl", workers=2)
        plain = load_records(tmp_path / "plain.jsonl")
        traced = load_records(tmp_path / "traced.jsonl")
        pooled = load_records(tmp_path / "pool.jsonl")
        assert traced == plain
        assert pooled == plain
        assert (tmp_path / "traced.jsonl").read_bytes() == (
            tmp_path / "plain.jsonl"
        ).read_bytes()
        # Aggregates are byte-identical — telemetry never leaks in.
        assert dumps_aggregate(
            load_records(tmp_path / "traced.jsonl")
        ) == dumps_aggregate(load_records(tmp_path / "plain.jsonl"))

    def test_inline_trace_stream(self, tmp_path):
        with obs.tracing() as tr:
            summary = run_campaign(tiny_spec(), tmp_path / "s.jsonl")
        validate_trace_events(tr.events)
        names = set(names_of(tr.events))
        assert {"campaign", "group", "store", "run_batch"} <= names
        root = [e for e in spans_of(tr.events) if e["name"] == "campaign"]
        assert len(root) == 1 and root[0]["parent"] is None
        (man,) = [e for e in tr.events if e["ev"] == "manifest"]
        assert man["manifest"]["kind"] == "campaign"
        assert man["manifest"]["n_scenarios"] == summary["total"] == 4
        (msnap,) = [e for e in tr.events if e["ev"] == "metrics"]
        assert msnap["metrics"]["counters"]["campaign.scenarios"] == 4
        tele = summary["telemetry"]
        assert tele["wall_s"] > 0
        (worker,) = tele["workers"].values()
        assert worker["scenarios"] == 4
        assert 0 <= worker["utilization"] <= 1

    def test_pool_trace_has_worker_pids(self, tmp_path):
        with obs.tracing() as tr:
            summary = run_campaign(
                tiny_spec(), tmp_path / "s.jsonl", workers=2, batch=1
            )
        validate_trace_events(tr.events)
        pids = {e["pid"] for e in spans_of(tr.events)}
        assert len(pids) >= 2  # parent + at least one worker
        worker_spans = [
            e for e in spans_of(tr.events) if e["pid"] != os.getpid()
        ]
        # batch=1 dispatches per scenario: each group is a slab of one.
        assert {"group", "simulate_batch", "run_batch"} <= {
            e["name"] for e in worker_spans
        }
        tele = summary["telemetry"]
        assert sum(w["scenarios"] for w in tele["workers"].values()) == 4
        assert tele["metrics"]["counters"]["campaign.groups"] == 4
        assert tele["metrics"]["histograms"]["campaign.queue_wait_s"][
            "count"
        ] == 4

    def test_pool_reports_parent_wait(self, tmp_path):
        # The parent's idle time on worker pipes is a traced counter; an
        # untraced run records nothing.
        metrics().reset()
        run_campaign(tiny_spec(), tmp_path / "plain.jsonl", workers=2)
        assert "supervisor.wait_s" not in metrics().snapshot()["counters"]
        with obs.tracing() as tr:
            summary = run_campaign(
                tiny_spec(), tmp_path / "s.jsonl", workers=2
            )
        counters = summary["telemetry"]["metrics"]["counters"]
        assert counters["supervisor.wait_s"] > 0
        (msnap,) = [e for e in tr.events if e["ev"] == "metrics"]
        assert msnap["metrics"]["counters"]["supervisor.wait_s"] > 0

    def test_inline_and_pool_run_one_executor(self, tmp_path):
        # workers=1 and workers=2 share one group executor: the same
        # groups, the same merged counters and the same records.
        spec = tiny_spec(stages=(4,), faults=(0, 2))
        runs = {}
        for workers in (1, 2):
            metrics().reset()
            store = tmp_path / f"w{workers}.jsonl"
            with obs.tracing() as tr:
                run_campaign(spec, store, workers=workers)
            groups = sorted(
                e["attrs"]["scenarios"]
                for e in spans_of(tr.events) if e["name"] == "group"
            )
            (msnap,) = [e for e in tr.events if e["ev"] == "metrics"]
            counters = msnap["metrics"]["counters"]
            records = load_records(store)
            runs[workers] = (
                groups,
                counters["campaign.groups"],
                counters["campaign.scenarios"],
                records,
            )
        # One group per topology: two fault-free seeds and two samples.
        assert runs[1][0] == [4, 4]
        assert runs[1][1:3] == (2, 8)
        assert runs[2] == runs[1]

    def test_untraced_summary_has_no_telemetry(self, tmp_path):
        summary = run_campaign(tiny_spec(), tmp_path / "s.jsonl")
        assert "telemetry" not in summary


class TestLogging:
    def test_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("campaign").name == "repro.campaign"
        assert get_logger("repro.cli").name == "repro.cli"

    def test_default_level_info(self, capsys):
        logger = configure()
        assert logger.level == logging.INFO
        get_logger("x").info("hello %d", 1)
        get_logger("x").debug("invisible")
        assert capsys.readouterr().out == "hello 1\n"

    def test_verbose_and_quiet(self, capsys):
        assert configure(verbosity=1).level == logging.DEBUG
        get_logger("x").debug("detail")
        assert capsys.readouterr().out == "detail\n"
        assert configure(quiet=1).level == logging.WARNING
        get_logger("x").info("silenced")
        assert capsys.readouterr().out == ""

    def test_both_flags_rejected(self):
        with pytest.raises(ReproError, match="mutually exclusive"):
            configure(verbosity=1, quiet=1)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "warning")
        assert configure().level == logging.WARNING
        monkeypatch.setenv("REPRO_LOG_LEVEL", "15")
        assert configure().level == 15
        monkeypatch.setenv("REPRO_LOG_LEVEL", "bogus")
        with pytest.raises(ReproError, match="REPRO_LOG_LEVEL"):
            configure()

    def test_flags_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        assert configure(verbosity=1).level == logging.DEBUG

    def test_configure_idempotent(self):
        configure()
        configure()
        logger = configure()
        assert len(logger.handlers) == 1


class TestCLITracing:
    SIM = ["simulate", "omega", "4", "--cycles", "50", "--rate", "0.5"]

    def test_simulate_trace_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "sim.jsonl"
        assert main([*self.SIM, "--trace", str(path)]) == 0
        events = validate_trace_file(path)
        assert "simulate" in names_of(events)
        assert any(e["ev"] == "manifest" for e in events)
        assert "timings" in capsys.readouterr().out

    def test_trace_env_variable(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(self.SIM) == 0
        assert "simulate" in names_of(validate_trace_file(path))

    def test_untraced_output_unchanged(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(self.SIM) == 0
        plain = capsys.readouterr().out
        assert main([*self.SIM, "--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        # The traced run only *appends* its timings line.
        assert traced.startswith(plain.rstrip("\n").split("\n")[0])
        assert "timings" not in plain

    def test_campaign_trace_and_status_metrics(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = tiny_spec()
        spec_path = tmp_path / "campaign.json"
        from repro.io import dump_campaign

        dump_campaign(spec, spec_path)
        store = tmp_path / "results.jsonl"
        trace = tmp_path / "camp.jsonl"
        assert main([
            "campaign", "run", "--spec", str(spec_path),
            "--store", str(store), "--workers", "1", "--trace", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign complete: 4 scenarios" in out
        assert "utilization" in out
        events = validate_trace_file(trace)
        assert "campaign" in names_of(events)

        assert main([
            "campaign", "status", "--spec", str(spec_path),
            "--store", str(store), "--metrics", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "run_batch" in out
        assert "campaign.scenarios" in out

    def test_status_metrics_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        from repro.io import dump_campaign

        spec_path = tmp_path / "campaign.json"
        dump_campaign(tiny_spec(), spec_path)
        store = tmp_path / "results.jsonl"
        run_campaign(tiny_spec(), store)
        with pytest.raises(SystemExit, match="cannot read trace file"):
            main([
                "campaign", "status", "--spec", str(spec_path),
                "--store", str(store),
                "--metrics", str(tmp_path / "nope.jsonl"),
            ])

    def test_quiet_silences_progress(self, tmp_path, capsys):
        from repro.__main__ import main

        spec_path = tmp_path / "campaign.json"
        from repro.io import dump_campaign

        dump_campaign(tiny_spec(), spec_path)
        assert main([
            "-q", "campaign", "run", "--spec", str(spec_path),
            "--store", str(tmp_path / "s.jsonl"), "--workers", "1",
        ]) == 0
        assert capsys.readouterr().out == ""
