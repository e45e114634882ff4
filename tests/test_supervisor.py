"""Tests for the fault-tolerant campaign supervisor.

The load-bearing property is the crash-safety oracle: a campaign that
survives injected crashes, hangs and poison scenarios must leave the
store identical, record for record, to a fault-free run over the
surviving scenarios, with every truly-poisonous scenario
quarantined alongside its remote traceback — and nothing else.
All chaos here is deterministic (:mod:`repro.campaign.chaos`), so these
tests replay the exact same faults on every run.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    ChaosSpec,
    QuarantineStore,
    RemoteTaskError,
    ResultStore,
    SupervisorConfig,
    TaskFailure,
    dumps_aggregate,
    expand_scenarios,
    load_records,
    parse_chaos,
    quarantine_path,
    record_crc,
    run_campaign,
)
from repro.campaign.chaos import ChaosInjected, chaos_from_env
from repro.campaign.errors import format_remote_traceback
from repro.campaign.heartbeat import render_watch_line
from repro.campaign import supervisor
from repro.campaign.supervisor import Task, plan_recovery
from repro.core.errors import ReproError


def tiny_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        topologies=("omega", "baseline"),
        stages=(3,),
        traffic=("uniform",),
        rates=(0.8,),
        faults=(0, 2),
        seeds=(0, 1),
        cycles=30,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def digests() -> list[str]:
    return sorted(s.digest for s in expand_scenarios(tiny_spec()))


# -- chaos -------------------------------------------------------------------


class TestChaosSpec:
    def test_parse_roundtrip(self):
        spec = parse_chaos(
            "seed=7,crash=0.1,hang=0.05,slow=0.3,"
            "slow_s=0.02,hang_s=9,poison=ab+cd,poison_numba=ef"
        )
        assert spec == ChaosSpec(
            seed=7, crash_p=0.1, hang_p=0.05, slow_p=0.3,
            slow_s=0.02, hang_s=9.0, poison=("ab", "cd"),
            poison_numba=("ef",),
        )

    def test_unknown_key_is_loud(self):
        with pytest.raises(ReproError, match="unknown chaos key"):
            parse_chaos("crsh=0.5")
        # A raise is never transient, so it has no probabilistic mode:
        # only poison= raises.
        with pytest.raises(ReproError, match="unknown chaos key 'raise'"):
            parse_chaos("raise=0.1")

    def test_bad_probability_rejected(self):
        with pytest.raises(ReproError, match="probability"):
            ChaosSpec(crash_p=1.5)

    def test_empty_spec_is_falsy(self):
        assert not ChaosSpec()
        assert ChaosSpec(poison=("aa",))

    def test_decide_is_deterministic(self, digests):
        spec = ChaosSpec(seed=3, crash_p=0.3, hang_p=0.3)
        for d in digests:
            for attempt in range(4):
                assert spec.decide(d, attempt) == spec.decide(d, attempt)

    def test_retries_reroll(self, digests):
        # Across digests x attempts a 30% crash rate must both trigger
        # and not trigger — i.e. decisions genuinely vary per attempt.
        spec = ChaosSpec(seed=1, crash_p=0.3)
        outcomes = {
            spec.decide(d, a) for d in digests for a in range(8)
        }
        assert outcomes == {None, "crash"}

    def test_poison_hits_every_attempt(self, digests):
        spec = ChaosSpec(poison=(digests[0][:6],))
        for attempt in range(5):
            assert spec.decide(digests[0], attempt) == "poison"
        assert spec.decide(digests[1], 0) is None

    def test_poison_numba_respects_degraded_backend(self, digests):
        spec = ChaosSpec(poison_numba=(digests[0][:6],))
        assert spec.decide(digests[0], 0) == "poison_numba"
        assert spec.decide(digests[0], 0, backend="numpy") is None

    def test_apply_raises_for_poison(self, digests):
        spec = ChaosSpec(poison=(digests[0][:6],))
        with pytest.raises(ChaosInjected, match=digests[0][:6]):
            spec.apply([digests[0]], attempt=0)
        spec.apply([digests[1]], attempt=0)  # healthy: no-op

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "seed=5,crash=0.5")
        assert chaos_from_env() == ChaosSpec(seed=5, crash_p=0.5)
        monkeypatch.setenv("REPRO_CHAOS", "seed=5")  # no active mode
        assert chaos_from_env() is None


# -- recovery policy ---------------------------------------------------------


class TestPlanRecovery:
    def _task(self, specs, **kw) -> Task:
        return Task(id=0, specs=tuple(specs), **kw)

    def _ids(self):
        it = iter(range(100, 200))
        return lambda: next(it)

    def test_group_failure_bisects(self):
        specs = list(expand_scenarios(tiny_spec()))[:4]
        task = self._task(specs)
        replacements, terminal, event = plan_recovery(
            task, SupervisorConfig(), self._ids()
        )
        assert event == "bisects" and terminal is None
        assert [len(t.specs) for t in replacements] == [2, 2]
        # Halves restart their attempt budget from scratch.
        assert all(t.attempt == 0 for t in replacements)

    def test_crashed_singleton_reruns_at_next_attempt(self):
        spec = list(expand_scenarios(tiny_spec()))[0]
        task = self._task([spec], last_error={"kind": "crash"})
        replacements, terminal, event = plan_recovery(
            task, SupervisorConfig(retries=2), self._ids()
        )
        assert event == "retries" and terminal is None
        (retry,) = replacements
        assert retry.attempt == 1
        assert retry.specs == task.specs and retry.backend_override is None

    def test_raising_singleton_is_terminal_at_once(self):
        # A report is a pure function of its spec: a raise would raise
        # again, so it is quarantined at attempt 0 whatever the budget.
        spec = list(expand_scenarios(tiny_spec()))[0]
        task = self._task([spec], last_error={"kind": "raise"})
        replacements, terminal, event = plan_recovery(
            task, SupervisorConfig(retries=2), self._ids()
        )
        assert event == "quarantined" and replacements == []
        assert terminal.kind == "raise"
        assert terminal.attempts == 1

    def test_exhausted_singleton_degrades_once(self):
        spec = list(expand_scenarios(tiny_spec()))[0]
        cfg = SupervisorConfig(retries=1, degrade_backend="numpy")
        task = self._task([spec], attempt=1)
        replacements, terminal, event = plan_recovery(
            task, cfg, self._ids()
        )
        assert event == "degraded" and terminal is None
        (degraded,) = replacements
        assert degraded.backend_override == "numpy"
        assert degraded.attempt == 2  # its own attempt number
        # The degraded attempt is the last one: failing again is
        # terminal, not another retry loop.
        again, terminal, event = plan_recovery(
            degraded, cfg, self._ids()
        )
        assert event == "quarantined" and again == []
        assert terminal.backends[-1] == "numpy"

    def test_quarantine_record_carries_evidence(self):
        spec = list(expand_scenarios(tiny_spec()))[0]
        task = self._task([spec], attempt=2)
        task.last_error = {
            "kind": "hang",
            "type": "TaskTimeout",
            "message": "too slow",
            "traceback": "tb",
            "worker_pid": 42,
        }
        replacements, terminal, event = plan_recovery(
            task, SupervisorConfig(retries=2), self._ids()
        )
        assert replacements == [] and event == "quarantined"
        assert terminal.hash == spec.digest
        assert terminal.kind == "hang"
        assert terminal.error_type == "TaskTimeout"
        assert terminal.attempts == 3
        assert terminal.worker_pid == 42


# -- errors / quarantine store ----------------------------------------------


class TestRemoteTaskError:
    def _make(self) -> RemoteTaskError:
        try:
            raise ValueError("worker-side boom")
        except ValueError as exc:
            return RemoteTaskError.from_exception(exc)

    def test_str_includes_remote_traceback(self):
        err = self._make()
        text = str(err)
        assert "worker-side boom" in text
        assert "remote traceback (worker process)" in text
        assert "ValueError" in err.remote_traceback

    def test_survives_pickling(self):
        err = self._make()
        clone = pickle.loads(pickle.dumps(err))
        assert clone.remote_traceback == err.remote_traceback
        assert str(clone) == str(err)

    def test_format_remote_traceback(self):
        try:
            raise KeyError("k")
        except KeyError as exc:
            text = format_remote_traceback(exc)
        assert "KeyError" in text and "Traceback" in text


class TestQuarantineStore:
    def _failure(self, h="aa11", **kw) -> TaskFailure:
        defaults = dict(
            hash=h,
            scenario={"topology": {"label": "omega(3)"}},
            kind="raise",
            error_type="ValueError",
            message="boom",
            traceback="Traceback ...",
            attempts=3,
            backends=("auto", "numpy"),
            worker_pid=7,
        )
        defaults.update(kw)
        return TaskFailure(**defaults)

    def test_bad_kind_rejected(self):
        with pytest.raises(ReproError, match="kind"):
            self._failure(kind="melted")

    def test_roundtrip(self):
        failure = self._failure()
        assert TaskFailure.from_dict(failure.to_dict()) == failure

    def test_append_read_get_requeue(self, tmp_path):
        q = QuarantineStore(tmp_path / "s.quarantine.jsonl")
        q.append(self._failure("aa11"))
        q.append(self._failure("bb22", kind="crash"))
        assert q.hashes() == {"aa11", "bb22"}
        assert q.get("bb").kind == "crash"
        assert q.get("zz") is None
        assert q.requeue(["aa"]) == 1
        assert q.hashes() == {"bb22"}
        assert q.requeue() == 1
        assert q.hashes() == set()
        assert len(q) == 0

    def test_torn_tail_tolerated(self, tmp_path):
        q = QuarantineStore(tmp_path / "s.quarantine.jsonl")
        q.append(self._failure())
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write('{"hash": "torn')
        assert q.hashes() == {"aa11"}
        # The next append cuts the torn bytes instead of joining them.
        q.append(self._failure("bb22"))
        assert q.hashes() == {"aa11", "bb22"}
        assert q.verify()["ok"] and not q.verify()["torn_tail"]

    @pytest.mark.parametrize(
        "line",
        [
            {"hash": "ab", "scenario": {}},
            {"hash": "ab", "scenario": {}, "error": {"kind": "raise"}},
            {
                "hash": "ab", "scenario": {},
                "error": {"kind": "melted", "type": "E", "message": "m"},
            },
        ],
        ids=["record-keys", "error-keys", "kind"],
    )
    def test_schema_bad_record_raises_repro_error(self, tmp_path, line):
        # records() applies verify()'s schema check instead of dying
        # with a raw KeyError inside TaskFailure.from_dict.
        q = QuarantineStore(tmp_path / "s.quarantine.jsonl")
        q.append(self._failure())
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        reason = q.verify()["bad"][0]["reason"]
        for read in (lambda: list(q.records()), q.hashes):
            with pytest.raises(ReproError, match="line 3") as err:
                read()
            assert str(q.path) in str(err.value)
            assert reason in str(err.value)

    def test_schema_bad_record_fails_resume_loudly(self, tmp_path, capsys):
        from repro.__main__ import main

        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store)
        q = QuarantineStore(quarantine_path(store))
        q.append(self._failure())
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write('{"hash": "ab", "scenario": {}}\n')
        with pytest.raises(ReproError, match="missing record keys"):
            run_campaign(tiny_spec(), store, resume=True)
        with pytest.raises(SystemExit, match="line 3"):
            main(["campaign", "quarantine", "--store", str(store)])

    def test_quarantine_path(self):
        assert quarantine_path("runs/sweep.jsonl") == Path(
            "runs/sweep.quarantine.jsonl"
        )


class TestQuarantineVerify:
    """``QuarantineStore.verify``: the quarantine half of ``--sidecars``."""

    def _store(self, tmp_path, n=2) -> QuarantineStore:
        q = QuarantineStore(tmp_path / "s.quarantine.jsonl")
        for i in range(n):
            q.append(TaskFailure(
                hash=f"aa{i}",
                scenario={"topology": {"label": "omega(3)"}},
                kind="raise",
                error_type="ValueError",
                message="boom",
                traceback="Traceback ...",
                attempts=3,
                backends=("auto",),
                worker_pid=7,
            ))
        return q

    def _corrupt_line(self, q, lineno, mutate):
        lines = q.path.read_text(encoding="utf-8").splitlines()
        lines[lineno] = mutate(lines[lineno])
        q.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_missing_sidecar_is_clean(self, tmp_path):
        q = QuarantineStore(tmp_path / "none.quarantine.jsonl")
        report = q.verify()
        assert report["ok"] and not report["exists"]
        assert report["records"] == 0

    def test_clean_store_verifies(self, tmp_path):
        report = self._store(tmp_path).verify()
        assert report["ok"] and report["exists"]
        assert report["records"] == 2
        assert report["bad"] == [] and not report["torn_tail"]

    def test_torn_tail_tolerated_not_bad(self, tmp_path):
        q = self._store(tmp_path)
        with open(q.path, "a", encoding="utf-8") as fh:
            fh.write('{"hash": "torn')
        report = q.verify()
        assert report["ok"] and report["torn_tail"]
        assert report["records"] == 2 and report["bad"] == []

    def test_invalid_json_mid_file_flagged(self, tmp_path):
        q = self._store(tmp_path)
        self._corrupt_line(q, 1, lambda s: s[: len(s) // 2])
        report = q.verify()
        assert not report["ok"]
        assert [b["line"] for b in report["bad"]] == [2]
        assert "invalid JSON" in report["bad"][0]["reason"]

    def test_missing_record_keys_flagged(self, tmp_path):
        q = self._store(tmp_path)
        self._corrupt_line(q, 2, lambda s: json.dumps({"hash": "x"}))
        report = q.verify()
        assert not report["ok"]
        assert "missing record keys" in report["bad"][0]["reason"]

    def test_missing_error_keys_flagged(self, tmp_path):
        def strip_message(s):
            doc = json.loads(s)
            doc["error"].pop("message")
            return json.dumps(doc)

        q = self._store(tmp_path)
        self._corrupt_line(q, 1, strip_message)
        report = q.verify()
        assert not report["ok"]
        assert "missing error keys" in report["bad"][0]["reason"]

    def test_unknown_failure_kind_flagged(self, tmp_path):
        def melt(s):
            doc = json.loads(s)
            doc["error"]["kind"] = "melted"
            return json.dumps(doc)

        q = self._store(tmp_path)
        self._corrupt_line(q, 1, melt)
        report = q.verify()
        assert not report["ok"]
        assert "melted" in report["bad"][0]["reason"]

    def test_broken_header_raises(self, tmp_path):
        q = self._store(tmp_path)
        self._corrupt_line(q, 0, lambda s: '{"format": "bogus"}')
        with pytest.raises(ReproError, match="not a"):
            q.verify()

    def test_cli_sidecars_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store)
        assert main(
            ["campaign", "store", "verify", "--store", str(store),
             "--sidecars"]
        ) == 0
        out = capsys.readouterr().out
        assert "no quarantine sidecar (ok)" in out
        assert "heartbeat" in out

    def test_cli_sidecars_flag_bad_quarantine(self, tmp_path, capsys):
        store = tmp_path / "sweep.jsonl"
        run_campaign(tiny_spec(), store)
        q = self._store(tmp_path)
        q.path.rename(quarantine_path(store))
        q = QuarantineStore(quarantine_path(store))
        self._corrupt_line(q, 1, lambda s: s[: len(s) // 2])

        from repro.__main__ import main

        assert main(
            ["campaign", "store", "verify", "--store", str(store),
             "--sidecars"]
        ) == 1
        assert "invalid JSON" in capsys.readouterr().out


# -- store integrity (crc + verify/repair) -----------------------------------


class TestStoreIntegrity:
    def _store(self, tmp_path) -> ResultStore:
        store = ResultStore(tmp_path / "s.jsonl")
        for i, h in enumerate(("aa", "bb", "cc")):
            store.append(
                h, {"k": i}, {"throughput": float(i), "elapsed": 0.1}
            )
        return store

    def test_appended_records_carry_valid_crc(self, tmp_path):
        store = self._store(tmp_path)
        for record in store.records():
            assert record["crc"] == record_crc(record)
        assert store.verify()["ok"]

    def test_crc_ignores_key_order_and_elapsed_changes(self, tmp_path):
        store = self._store(tmp_path)
        record = next(store.records())
        shuffled = dict(reversed(list(record.items())))
        assert record_crc(shuffled) == record["crc"]
        tampered = json.loads(json.dumps(record))
        tampered["report"]["throughput"] = 99.0
        assert record_crc(tampered) != record["crc"]

    def _corrupt_line(self, store, lineno, mutate):
        lines = store.path.read_text(encoding="utf-8").splitlines()
        lines[lineno] = mutate(lines[lineno])
        store.path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_verify_flags_bit_rot(self, tmp_path):
        store = self._store(tmp_path)
        # Flip a value without breaking the JSON: crc must catch it.
        self._corrupt_line(
            store, 2, lambda s: s.replace('"throughput": 1.0', '"throughput": 5.0')
        )
        report = store.verify()
        assert not report["ok"]
        assert [b["line"] for b in report["bad"]] == [3]
        assert "crc mismatch" in report["bad"][0]["reason"]

    def test_verify_flags_torn_json_mid_file(self, tmp_path):
        store = self._store(tmp_path)
        self._corrupt_line(store, 1, lambda s: s[: len(s) // 2])
        report = store.verify()
        assert not report["ok"]
        assert "invalid JSON" in report["bad"][0]["reason"]
        # records() still refuses mid-file corruption outright.
        with pytest.raises(ReproError, match="corrupt record"):
            list(store.records())

    def test_repair_drops_bad_lines_to_sidecar(self, tmp_path):
        store = self._store(tmp_path)
        self._corrupt_line(store, 2, lambda s: s[:-10] + "}")
        report = store.repair()
        assert report["dropped"] == 1
        bad = Path(report["bad_file"])
        assert bad.read_text(encoding="utf-8").count("\n") == 1
        assert store.verify()["ok"]
        assert store.hashes() == {"aa", "cc"}
        # A clean store repairs to a no-op.
        assert store.repair()["dropped"] == 0

    def test_legacy_records_without_crc_verify_fine(self, tmp_path):
        store = self._store(tmp_path)
        self._corrupt_line(
            store, 1, lambda s: json.dumps(
                {k: v for k, v in json.loads(s).items() if k != "crc"},
                sort_keys=True,
            )
        )
        assert store.verify()["ok"]


# -- supervised campaigns under chaos ----------------------------------------


class TestSupervisedCampaign:
    """Integration: the crash-safety oracle under deterministic chaos."""

    def _fault_free(self, tmp_path, **kw):
        path = tmp_path / "clean.jsonl"
        run_campaign(tiny_spec(), path, **kw)
        return load_records(path)

    def test_poison_scenario_quarantined_rest_intact(
        self, tmp_path, digests
    ):
        poisoned = digests[0]
        want = self._fault_free(tmp_path, workers=2)
        path = tmp_path / "chaotic.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=2, retries=1,
            chaos=f"poison={poisoned[:8]}",
        )
        assert summary["quarantined"] == 1
        assert summary["ran"] == len(digests) - 1
        assert summary["faults"]["quarantined"] == 1
        # Oracle: surviving records identical to the fault-free run.
        got = load_records(path)
        assert got == [r for r in want if r["hash"] != poisoned]
        # The quarantine holds exactly the poison, traceback included.
        q = QuarantineStore(quarantine_path(path))
        (failure,) = list(q.records())
        assert failure.hash == poisoned
        assert failure.kind == "raise"
        assert failure.error_type == "ChaosInjected"
        assert "ChaosInjected" in failure.traceback
        assert failure.attempts == 1  # a raise is never re-run

    def test_resume_skips_quarantined_then_requeue_reruns(
        self, tmp_path, digests
    ):
        poisoned = digests[0]
        path = tmp_path / "s.jsonl"
        run_campaign(
            tiny_spec(), path, workers=2, retries=0,
            chaos=f"poison={poisoned[:8]}",
        )
        # Resume (chaos off): the quarantined scenario is skipped, not
        # silently retried.
        summary = run_campaign(tiny_spec(), path, resume=True)
        assert summary["ran"] == 0
        assert summary["quarantined_skipped"] == 1
        assert summary["skipped"] == len(digests) - 1
        # Requeue hands it back to the next resume.
        assert QuarantineStore(quarantine_path(path)).requeue() == 1
        summary = run_campaign(tiny_spec(), path, resume=True)
        assert summary["ran"] == 1 and summary["quarantined"] == 0
        assert load_records(path) == self._fault_free(tmp_path)

    def test_abort_mode_raises_with_remote_traceback(
        self, tmp_path, digests
    ):
        with pytest.raises(RemoteTaskError) as excinfo:
            run_campaign(
                tiny_spec(), tmp_path / "s.jsonl", workers=2,
                retries=0, on_error="abort",
                chaos=f"poison={digests[0][:8]}",
            )
        text = str(excinfo.value)
        assert digests[0] in text
        assert "remote traceback" in text

    def test_inline_engine_quarantines_too(self, tmp_path, digests):
        poisoned = digests[-1]
        want = self._fault_free(tmp_path)
        path = tmp_path / "inline.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=1, retries=1,
            chaos=f"poison={poisoned[:8]}",
        )
        assert summary["quarantined"] == 1
        assert load_records(path) == [
            r for r in want if r["hash"] != poisoned
        ]
        assert QuarantineStore(
            quarantine_path(path)
        ).hashes() == {poisoned}

    def test_inline_poison_never_sleeps(
        self, tmp_path, digests, monkeypatch
    ):
        # A raise is terminal once isolated, so nothing waits before a
        # re-run: any sleep in the supervisor would fail the run.
        def no_sleep(seconds):
            raise AssertionError(f"supervisor slept {seconds}s")

        monkeypatch.setattr(supervisor.time, "sleep", no_sleep)
        poisoned = digests[0]
        path = tmp_path / "inline.jsonl"
        summary = run_campaign(
            tiny_spec(), path, chaos=f"poison={poisoned[:8]}"
        )
        assert summary["quarantined"] == 1
        assert summary["ran"] == len(digests) - 1
        assert QuarantineStore(
            quarantine_path(path)
        ).hashes() == {poisoned}

    def test_pool_poison_is_not_rerun(self, tmp_path, digests):
        path = tmp_path / "pool.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=2,
            chaos=f"poison={digests[0][:8]}",
        )
        assert summary["quarantined"] == 1
        assert summary["faults"]["retries"] == 0
        (failure,) = QuarantineStore(quarantine_path(path)).records()
        assert failure.attempts == 1

    def test_degraded_run_takes_the_next_attempt(
        self, tmp_path, digests, monkeypatch
    ):
        # Poisoned on every backend: the isolated singleton runs once,
        # degrades once to numpy, and is quarantined.  Each run has its
        # own attempt number, so the record counts both runs.
        from repro.campaign import runner

        poisoned = digests[0]
        runs = []
        execute = runner._execute_group

        def counting(specs, attempt, backend_override, *args):
            if [s.digest for s in specs] == [poisoned]:
                runs.append((attempt, backend_override))
            return execute(specs, attempt, backend_override, *args)

        monkeypatch.setattr(runner, "_execute_group", counting)
        path = tmp_path / "degraded.jsonl"
        summary = run_campaign(
            tiny_spec(), path, retries=1,
            chaos=f"poison={poisoned[:8]},poison_numba={poisoned[:8]}",
        )
        assert runs == [(0, None), (1, "numpy")]
        assert summary["faults"]["degraded"] == 1
        (failure,) = QuarantineStore(quarantine_path(path)).records()
        assert failure.hash == poisoned
        assert failure.attempts == 2
        assert failure.backends[-1] == "numpy"

    def test_worker_crashes_are_survived(self, tmp_path, digests):
        # Deterministic chaos: pick a seed whose 30% crash rate kills
        # at least one attempt-0 task but spares every scenario by its
        # final retry — the sweep must then complete with a full,
        # fault-free-identical store and a respawned pool.
        retries = 4
        # A scenario quarantines only when attempts 0..retries *all*
        # crash; pick a seed that crashes something at attempt 0 but
        # never a full chain.
        seed = next(
            s for s in range(1000)
            if any(
                ChaosSpec(seed=s, crash_p=0.3).decide(d, 0) == "crash"
                for d in digests
            )
            and not any(
                all(
                    ChaosSpec(seed=s, crash_p=0.3).decide(d, a) == "crash"
                    for a in range(retries + 1)
                )
                for d in digests
            )
        )
        want = self._fault_free(tmp_path, workers=2)
        path = tmp_path / "crashy.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=2, retries=retries,
            chaos=ChaosSpec(seed=seed, crash_p=0.3),
        )
        assert summary["quarantined"] == 0
        assert summary["faults"]["crashes"] >= 1
        assert summary["faults"]["respawns"] >= 1
        assert load_records(path) == want

    def test_hang_hits_timeout_and_retries(self, tmp_path, digests):
        # Same trick for hangs: attempt 0 of some scenario sleeps past
        # the task timeout, every retry is clean.  The supervisor must
        # SIGKILL the hung worker and still finish the whole grid.
        seed = next(
            s for s in range(1000)
            if any(
                ChaosSpec(seed=s, hang_p=0.2).decide(d, 0) == "hang"
                for d in digests
            )
            and not any(
                all(
                    ChaosSpec(seed=s, hang_p=0.2).decide(d, a) == "hang"
                    for a in range(3)
                )
                for d in digests
            )
        )
        want = self._fault_free(tmp_path, workers=2)
        path = tmp_path / "hangy.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=2, retries=2, task_timeout=1.5,
            chaos=ChaosSpec(seed=seed, hang_p=0.2, hang_s=60.0),
        )
        assert summary["quarantined"] == 0
        assert summary["faults"]["timeouts"] >= 1
        assert summary["faults"]["retries"] >= 1
        assert load_records(path) == want

    def test_always_hanging_scenario_is_quarantined_as_hang(
        self, tmp_path, digests
    ):
        spec = tiny_spec(seeds=(0,), faults=(0,))  # 2 scenarios
        path = tmp_path / "hang.jsonl"
        summary = run_campaign(
            spec, path, workers=2, retries=0, task_timeout=0.8,
            batch=1,
            chaos=ChaosSpec(hang_p=1.0, hang_s=60.0),
        )
        assert summary["quarantined"] == 2
        for failure in QuarantineStore(quarantine_path(path)).records():
            assert failure.kind == "hang"
            assert failure.error_type == "TaskTimeout"

    def test_numba_poison_degrades_to_numpy(self, tmp_path, digests):
        # poison_numba fails unless the task was degraded to the numpy
        # backend — the deterministic stand-in for a JIT-only failure.
        # The scenario must complete (on numpy), not quarantine.
        poisoned = digests[0]
        want = self._fault_free(tmp_path, workers=2)
        path = tmp_path / "degraded.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=2, retries=1,
            chaos=f"poison_numba={poisoned[:8]}",
        )
        assert summary["quarantined"] == 0
        assert summary["faults"]["degraded"] == 1
        assert load_records(path) == want

    def test_slow_chaos_changes_nothing(self, tmp_path, digests):
        want = self._fault_free(tmp_path)
        path = tmp_path / "slow.jsonl"
        summary = run_campaign(
            tiny_spec(), path, workers=2,
            chaos=ChaosSpec(slow_p=1.0, slow_s=0.002),
        )
        assert summary["quarantined"] == 0
        assert load_records(path) == want

    def test_chaos_env_var_reaches_workers(
        self, tmp_path, digests, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", f"poison={digests[0][:8]}")
        summary = run_campaign(
            tiny_spec(), tmp_path / "env.jsonl", workers=2, retries=0
        )
        assert summary["quarantined"] == 1

    def test_bad_on_error_rejected_before_any_work(self, tmp_path):
        with pytest.raises(ReproError, match="on_error"):
            run_campaign(
                tiny_spec(), tmp_path / "s.jsonl", on_error="explode"
            )
        assert not (tmp_path / "s.jsonl").exists()


class TestKillNineRecovery:
    def test_sigkilled_run_resumes_to_identical_aggregate(self, tmp_path):
        """kill -9 mid-sweep, then resume: same aggregate as fault-free."""
        clean = tmp_path / "clean.jsonl"
        run_campaign(tiny_spec(), clean)
        want = dumps_aggregate(load_records(clean))

        store = tmp_path / "killed.jsonl"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            # Slow every scenario so the kill lands mid-run.
            REPRO_CHAOS="slow=1,slow_s=0.25",
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                "--topologies", "omega", "baseline", "--stages", "3",
                "--rates", "0.8", "--fault-cells", "0", "2",
                "--seeds", "0", "1", "--cycles", "30",
                "--workers", "2", "--batch", "1",
                "--store", str(store), "--quiet",
            ],
            env=env,
            start_new_session=True,  # so the kill takes the workers too
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if ResultStore(store).count_records() >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign produced no records to interrupt")
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        interrupted = ResultStore(store).count_records()
        assert interrupted < tiny_spec().n_scenarios

        summary = run_campaign(tiny_spec(), store, resume=True)
        assert summary["quarantined"] == 0
        assert summary["skipped"] >= interrupted
        assert dumps_aggregate(load_records(store)) == want
        # The torn tail is cut and every record rewritten byte for byte.
        assert sorted(store.read_bytes().splitlines()) == sorted(
            clean.read_bytes().splitlines()
        )


# -- watch integration -------------------------------------------------------


class TestStalledWorkerRendering:
    def _snap(self, task_timeout, ages):
        now = 1000.0
        return {
            "status": "running",
            "done": 3,
            "total": 8,
            "records": 3,
            "heartbeat": {
                "rate_per_s": 2.0,
                "eta_s": 2.5,
                "updated_ts": now,
                "task_timeout": task_timeout,
                "worker_liveness": {
                    str(pid): {"last_seen": now - age}
                    for pid, age in enumerate(ages)
                },
            },
        }

    def test_worker_past_task_timeout_is_stalled(self):
        line = render_watch_line(self._snap(5.0, [1.0, 9.0]))
        assert "workers 1 live / 1 stalled" in line

    def test_default_threshold_without_timeout(self):
        line = render_watch_line(self._snap(None, [1.0, 9.0]))
        assert "workers 2 live" in line
        assert "stalled" not in line


# -- CLI ---------------------------------------------------------------------


class TestFaultCli:
    def _run(self, *argv) -> int:
        from repro.__main__ import main

        return main(["-q", *argv])

    def test_store_verify_and_repair(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("aa", {"k": 1}, {"throughput": 1.0, "elapsed": 0.1})
        store.append("bb", {"k": 2}, {"throughput": 2.0, "elapsed": 0.1})
        assert self._run(
            "campaign", "store", "verify", "--store", str(store.path)
        ) == 0
        lines = store.path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:40]
        store.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self._run(
            "campaign", "store", "verify", "--store", str(store.path)
        ) == 1
        assert self._run(
            "campaign", "store", "repair", "--store", str(store.path)
        ) == 0
        assert self._run(
            "campaign", "store", "verify", "--store", str(store.path)
        ) == 0
        assert (tmp_path / "s.jsonl.bad").exists()
        out = capsys.readouterr().out
        assert "invalid JSON" in out and "dropped 1" in out

    def test_quarantine_list_show_requeue(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        digest = sorted(
            s.digest for s in expand_scenarios(tiny_spec())
        )[0]
        run_campaign(
            tiny_spec(), store, retries=0, chaos=f"poison={digest[:8]}"
        )
        assert self._run(
            "campaign", "quarantine", "--store", str(store)
        ) == 1
        assert digest in capsys.readouterr().out
        assert self._run(
            "campaign", "quarantine", "--store", str(store),
            "--show", digest[:8],
        ) == 1
        out = capsys.readouterr().out
        assert "remote traceback" in out and "ChaosInjected" in out
        assert self._run(
            "campaign", "quarantine", "--store", str(store),
            "--requeue-all",
        ) == 0
        assert self._run(
            "campaign", "quarantine", "--store", str(store)
        ) == 0
