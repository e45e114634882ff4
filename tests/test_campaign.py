"""Tests for the campaign engine: specs, store, runner, aggregation.

The load-bearing properties: the same spec always expands to the same
hash-keyed scenarios and the same reports (bit-determinism), a killed run
resumes into the same logical store as an uninterrupted one, and the
aggregate report is byte-identical either way.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    ReliabilitySweepSpec,
    ResultStore,
    aggregate_rows,
    aggregate_table,
    dumps_aggregate,
    dumps_reliability,
    expand_scenarios,
    head_to_head,
    head_to_head_table,
    load_records,
    record_crc,
    reliability_report,
    run_campaign,
)
from repro.core.errors import ReproError, UnknownNetworkError
from repro.spec import NetworkSpec, ScenarioSpec, TrafficSpec, scenario_digest
from repro.io import dump_campaign, dump_network, load_campaign, loads_campaign
from repro.networks.catalog import (
    CLASSICAL_NETWORKS,
    NETWORK_CATALOG,
    build_network,
)
from repro.networks.omega import omega
from repro.campaign import runner
from repro.sim import compile_cache_info, simulate
from repro.sim import batch as sim_batch
from repro.sim.batch import SLAB_SAMPLES, pack_slabs
from repro.sim.compiled import CompileCache, compile_key
from repro.sim.faults import FaultSet, fault_masks


def _slab_compile_keys(scenarios, batch: int = 16) -> set:
    """The distinct compile keys of the tasks a run packs ``scenarios``
    into: one topology plus the task's fault samples in task order."""
    keys = set()
    for task in runner._pack_tasks(scenarios, batch):
        net = task[0].network.resolve()
        samples = dict.fromkeys(s.faults for s in task)
        fault_sets = [
            FaultSet.from_counts(
                net.n_stages,
                net.size,
                cells=fs.cells,
                links=fs.links,
                seed=fs.seed,
            )
            for fs in samples
        ]
        keys.add(compile_key(net, fault_masks(net, fault_sets)))
    return keys


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


class TestCatalog:
    def test_benes_is_registered(self):
        assert "benes" in NETWORK_CATALOG
        net = build_network("benes", 3)
        assert net.n_stages == 5 and net.size == 4

    def test_catalog_extends_classical(self):
        assert set(NETWORK_CATALOG) == set(CLASSICAL_NETWORKS) | {
            "benes", "omega_k", "baseline_k",
            "extra_stage_omega", "extra_stage_cube", "omega_3dp",
            "benes_variant",
        }
        # The file loader resolves but stays out of the public listing.
        assert "file" in NETWORK_CATALOG
        assert "file" not in set(NETWORK_CATALOG)

    def test_classical_registry_untouched(self):
        # benes is not baseline-equivalent; it must stay out of the
        # equivalence experiments' registry.
        assert "benes" not in CLASSICAL_NETWORKS
        assert len(CLASSICAL_NETWORKS) == 6

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownNetworkError, match="benes") as err:
            build_network("hypercube", 4)
        assert "benes" in err.value.candidates
        assert isinstance(err.value, ReproError)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        assert CampaignSpec().n_scenarios == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topologies": ()},
            {"topologies": ("hypercube",)},
            {"topologies": ({"name": "omega", "bogus": 1},)},
            {"stages": (1,)},
            {"traffic": ("warp",)},
            {"traffic": ({"name": "uniform", "rate": 0.5},)},
            {"traffic": ({"name": "permutation"},)},
            {"traffic": ({"name": "uniform", "bogus": 1},)},
            {"traffic": ({"name": "hotspot", "fraction": 1.5},)},
            {"traffic": ({"name": "permutation", "perm": [0, 0]},)},
            {"rates": (0.0,)},
            {"rates": (1.5,)},
            {"faults": (-1,)},
            {"faults": ({"cells": 1, "bogus": 2},)},
            {"faults": (2, {"cells": 2})},
            {"seeds": (0, 0)},
            {"seeds": (-1,)},
            {"seeds": (1_000_003,)},
            {"fault_seed_base": -1},
            {"cycles": 0},
            {"policy": "retry"},
            {"fault_seed_base": True},
            {"drain": 1},
            {"drain": 0},
            {"drain": "no"},
            # Mapping counts are not coerced: each would run another
            # scenario than the one the spec saves.
            {"faults": ({"cells": 2.5},)},
            {"faults": ({"cells": True},)},
            {"faults": ({"links": "1"},)},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            tiny_spec(**kwargs)

    def test_scalar_axes_are_wrapped(self):
        spec = CampaignSpec(topologies="omega", stages=4, seeds=0)
        assert spec.topologies == ("omega",)
        assert spec.n_scenarios == 1

    def test_round_trip_through_dict(self):
        spec = tiny_spec(traffic=({"name": "hotspot", "fraction": 0.3},))
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown campaign spec"):
            CampaignSpec.from_dict({"cadence": 3})


class TestCampaignIO:
    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(faults=({"cells": 1, "links": 2},))
        path = tmp_path / "grid.json"
        dump_campaign(spec, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-campaign"
        assert doc["version"] == 1
        assert load_campaign(path).to_dict() == spec.to_dict()

    def test_wrong_format_rejected(self):
        from repro.core.errors import InvalidNetworkError

        with pytest.raises(InvalidNetworkError, match="repro-campaign"):
            loads_campaign('{"format": "repro-midigraph", "version": 1}')


class TestExpansion:
    def test_grid_cardinality(self):
        spec = tiny_spec()
        scenarios = expand_scenarios(spec)
        assert len(scenarios) == spec.n_scenarios == 2 * 1 * 1 * 2 * 2

    def test_expansion_is_deterministic(self):
        a = expand_scenarios(tiny_spec())
        b = expand_scenarios(tiny_spec())
        assert [s.digest for s in a] == [s.digest for s in b]
        assert [s.to_spec() for s in a] == [s.to_spec() for s in b]

    def test_hashes_are_unique(self):
        scenarios = expand_scenarios(tiny_spec())
        assert len({s.digest for s in scenarios}) == len(scenarios)

    def test_hash_is_canonical_over_key_order(self):
        doc = expand_scenarios(tiny_spec())[0].to_spec()
        shuffled = dict(reversed(list(doc.items())))
        assert scenario_digest(doc) == scenario_digest(shuffled)

    def test_fault_seed_is_topology_independent(self):
        # Same grid point, different topology => identical fault seed, so
        # same-shape topologies are degraded by the identical fault set.
        scenarios = expand_scenarios(tiny_spec())
        by_topo: dict[str, dict] = {}
        for s in scenarios:
            by_topo.setdefault(s.label, {})[
                (s.faults.cells, s.faults.links, s.seed)
            ] = s.faults.seed
        assert by_topo["omega(3)"] == by_topo["baseline(3)"]

    def test_faultfree_scenarios_pin_fault_seed_to_zero(self):
        for s in expand_scenarios(tiny_spec()):
            if not (s.faults.cells or s.faults.links):
                assert s.faults.seed == 0
            else:
                assert s.faults.seed != 0

    def test_duplicate_grid_points_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            expand_scenarios(tiny_spec(stages=(3, 3)))

    def test_custom_labels_span_the_stages_axis(self):
        spec = tiny_spec(
            topologies=({"name": "omega", "label": "Om"},),
            stages=(3, 4),
            faults=(0,),
            seeds=(0,),
        )
        labels = {s.label for s in expand_scenarios(spec)}
        assert labels == {"Om(3)", "Om(4)"}
        single = tiny_spec(
            topologies=({"name": "omega", "label": "Om"},),
            faults=(0,),
            seeds=(0,),
        )
        assert {s.label for s in expand_scenarios(single)} == {"Om"}

    def test_two_permutation_patterns_stay_distinct(self, tmp_path):
        # Both describe() as "permutation"; they must aggregate as two
        # separate grid cells, not collide.
        spec = tiny_spec(
            topologies=("omega",),
            traffic=(
                {"name": "permutation", "perm": [1, 0, 3, 2, 5, 4, 7, 6]},
                {"name": "permutation", "perm": [7, 6, 5, 4, 3, 2, 1, 0]},
            ),
            faults=(0,),
            seeds=(0,),
        )
        run_campaign(spec, tmp_path / "s.jsonl")
        rows = aggregate_rows(load_records(tmp_path / "s.jsonl"))
        assert len(rows) == 2


class TestFileTopologies:
    def test_file_entries_expand_with_digest(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(
            topologies=("baseline", {"file": "net.json", "label": "saved"}),
            faults=(0,),
            seeds=(0,),
        )
        scenarios = expand_scenarios(spec, base_dir=tmp_path)
        labels = {s.label for s in scenarios}
        assert labels == {"baseline(3)", "saved"}
        (file_scn,) = [s for s in scenarios if s.label == "saved"]
        assert file_scn.network.to_spec()["kind"] == "file"
        assert len(file_scn.network.to_spec()["digest"]) == 16

    def test_stages_axis_ignored_for_files(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(
            topologies=(str(path),), stages=(3, 4), faults=(0,), seeds=(0,)
        )
        assert spec.n_scenarios == 1
        assert len(expand_scenarios(spec)) == 1

    def test_hash_is_path_spelling_independent(self, tmp_path, monkeypatch):
        # Resuming via a different path spelling (relative vs absolute)
        # must not change scenario identities.
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec_abs = tiny_spec(
            topologies=(str(path),), faults=(0,), seeds=(0,)
        )
        monkeypatch.chdir(tmp_path)
        spec_rel = tiny_spec(topologies=("net.json",), faults=(0,), seeds=(0,))
        (a,) = expand_scenarios(spec_abs)
        (b,) = expand_scenarios(spec_rel)
        assert a.network.to_spec()["path"] != b.network.to_spec()["path"]
        assert a.digest == b.digest

    def test_duplicate_labels_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        dump_network(omega(3), tmp_path / "a" / "net.json")
        dump_network(omega(3), tmp_path / "b" / "net.json")
        spec = tiny_spec(topologies=("a/net.json", "b/net.json"))
        with pytest.raises(ReproError, match="duplicate topology labels"):
            expand_scenarios(spec, base_dir=tmp_path)

    def test_missing_file_fails_at_expansion(self):
        spec = tiny_spec(topologies=("nowhere/net.json",))
        with pytest.raises(ReproError, match="cannot read"):
            expand_scenarios(spec)

    def test_changed_file_fails_in_worker(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(topologies=(str(path),), faults=(0,), seeds=(0,))
        (scenario,) = expand_scenarios(spec)
        dump_network(omega(4), path)
        with pytest.raises(ReproError, match="changed since"):
            simulate(scenario)

    def test_file_scenario_simulates(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(topologies=(str(path),), faults=(0,), seeds=(0,))
        (scenario,) = expand_scenarios(spec)
        report = simulate(scenario)
        assert report.delivered > 0
        assert report.network == "net"


class TestResultStore:
    def test_append_and_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("abc", {"seed": 0}, {"delivered": 3})
        store.append("def", {"seed": 1}, {"delivered": 4})
        records = list(store.records())
        assert [r["hash"] for r in records] == ["abc", "def"]
        assert store.hashes() == {"abc", "def"}
        assert len(store) == 2 and "abc" in store

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nope.jsonl")
        assert not store.exists()
        assert list(store.records()) == []

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append("abc", {}, {})
        store.append("def", {}, {})
        lines = path.read_text().splitlines(keepends=True)
        torn = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)  # crash mid-write of the last record
        assert store.hashes() == {"abc"}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append("abc", {}, {})
        with open(path, "a") as fh:
            fh.write("{broken\n")
        store.append("def", {}, {})
        with pytest.raises(ReproError, match="corrupt record"):
            list(store.records())

    def test_complete_corrupt_final_record_raises(self, tmp_path):
        # A final line with its newline is a finished write, not a torn
        # one: records() must refuse it at once, not drop the scenario
        # and then refuse the store after the next append.
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        for h in ("aa", "bb", "cc"):
            store.append(h, {}, {})
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + '{"hsh": "cc"}\n')
        assert store.count_records() == 3
        with pytest.raises(ReproError, match="corrupt record on line 4"):
            list(store.records())
        store.append("dd", {}, {})
        with pytest.raises(ReproError, match="corrupt record on line 4"):
            list(store.records())

    def test_line_is_one_encoding_of_the_old_spelling(self, tmp_path):
        # One marked encoding serves the CRC and the line: both must be
        # the spellings of two separate json.dumps calls, whatever the
        # strings hold (separators, escapes, non-ASCII, control chars).
        scenario = {
            "label": 'a, b: c\\"d\né\x00',
            "x": [1, 2.5, {"k: v": ", "}], "e": {}, "l": [],
        }
        report = {"mean": float("nan"), "p99": 1e-300, "n": None}
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("h1", scenario, report)
        record = {"hash": "h1", "scenario": scenario, "report": report}
        record["crc"] = record_crc(record)
        line = store.path.read_text(encoding="utf-8").splitlines()[1]
        assert line == json.dumps(record, sort_keys=True)
        assert store.verify()["ok"]

    def test_extend_writes_a_group_with_one_open(self, tmp_path, monkeypatch):
        rows = [(f"h{i}", {"seed": i}, {"delivered": i}) for i in range(5)]
        one = ResultStore(tmp_path / "one.jsonl")
        for row in rows:
            one.append(*row)
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        many = ResultStore(tmp_path / "many.jsonl")
        many.extend(rows[:2])
        many.extend(rows[2:])
        many.extend([])
        monkeypatch.undo()
        assert len(opened) == 2
        assert many.path.read_bytes() == one.path.read_bytes()

    def test_extend_cuts_a_torn_tail_once(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).extend([("aa", {}, {}), ("bb", {}, {})])
        path.write_bytes(path.read_bytes()[:-7])  # "bb" torn mid-write
        store = ResultStore(path)
        store.extend([("bb", {}, {}), ("cc", {}, {})])
        assert [r["hash"] for r in store.records()] == ["aa", "bb", "cc"]
        assert store.verify()["ok"]

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"format": "repro-midigraph", "version": 1}\n')
        with pytest.raises(ReproError, match="repro-campaign-store"):
            list(ResultStore(path).records())


class TestRunner:
    def test_reports_are_deterministic(self):
        scenario = expand_scenarios(tiny_spec())[0]
        a = simulate(scenario)
        b = simulate(ScenarioSpec.from_spec(scenario.to_spec()))
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_inline_run_fills_the_store(self, tmp_path):
        spec = tiny_spec()
        summary = run_campaign(spec, tmp_path / "s.jsonl")
        cache = summary.pop("compile_cache")
        traffic = summary.pop("traffic_cache")
        faults = summary.pop("faults")
        assert all(v == 0 for v in faults.values())
        assert summary == {
            "total": 8, "skipped": 0, "ran": 8,
            "quarantined": 0, "quarantined_skipped": 0,
            "quarantine": None,
            "store": str(tmp_path / "s.jsonl"),
        }
        # Every group compiles at most once; the sweep's accounting
        # exposes the worker-aggregated compile-cache counters.
        assert cache["misses"] >= 1
        assert cache["hits"] >= 0
        # One draw per scenario, from the run's schedule store or not.
        assert traffic["hits"] + traffic["misses"] == 8
        hashes = {s.digest for s in expand_scenarios(spec)}
        assert ResultStore(tmp_path / "s.jsonl").hashes() == hashes

    def test_compile_cache_belongs_to_the_run(self, tmp_path):
        # More than 8 (topology, fault sample) pairs and more than 8
        # slabs, one compilation per distinct slab compile key: no run
        # warms or resizes another run's cache.
        spec = tiny_spec(
            stages=(4,), faults=(1, 2), seeds=range(40), cycles=10
        )
        scenarios = expand_scenarios(spec)
        pairs = {(s.network, s.faults) for s in scenarios}
        keys = _slab_compile_keys(scenarios)
        assert len(pairs) > 8 and len(keys) > 8
        first = run_campaign(spec, tmp_path / "a.jsonl")["compile_cache"]
        second = run_campaign(spec, tmp_path / "b.jsonl")["compile_cache"]
        assert first == second
        assert first["misses"] == len(keys)
        assert compile_cache_info()["maxsize"] == 8

    def test_cache_holds_at_most_64_fault_samples(
        self, tmp_path, monkeypatch
    ):
        # The cache is bounded in fault samples, not entries: each entry
        # is a slab of up to SLAB_SAMPLES samples.
        held = []

        class Recording(CompileCache):
            def compile(self, net, masks=None):
                comp = super().compile(net, masks)
                held.append(
                    sum(len(c.cells_alive) for c in self._entries.values())
                )
                return comp

        monkeypatch.setattr(runner, "CompileCache", Recording)
        spec = tiny_spec(
            stages=(4,), faults=(1, 2, 3, 4), seeds=range(40), cycles=10
        )
        scenarios = expand_scenarios(spec)
        full = [
            slab for slab in pack_slabs(scenarios, 16)
            if len({scenarios[i].faults for i in slab}) == SLAB_SAMPLES
        ]
        assert len(full) > 64 // SLAB_SAMPLES
        summary = run_campaign(spec, tmp_path / "s.jsonl")
        assert summary["compile_cache"]["misses"] == len(
            _slab_compile_keys(scenarios)
        )
        assert max(held) == 64

    def test_pool_run_matches_inline_run(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        run_campaign(spec, tmp_path / "inline.jsonl", workers=1)
        run_campaign(spec, tmp_path / "pool.jsonl", workers=2)
        assert load_records(tmp_path / "inline.jsonl") == load_records(
            tmp_path / "pool.jsonl"
        )

    def test_existing_store_requires_resume(self, tmp_path):
        spec = tiny_spec(seeds=(0,), faults=(0,))
        run_campaign(spec, tmp_path / "s.jsonl")
        with pytest.raises(ReproError, match="resume"):
            run_campaign(spec, tmp_path / "s.jsonl")

    def test_complete_store_resumes_to_noop(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "s.jsonl")
        summary = run_campaign(spec, tmp_path / "s.jsonl", resume=True)
        assert summary["ran"] == 0 and summary["skipped"] == 8

    def test_bad_worker_count_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="workers"):
            run_campaign(tiny_spec(), tmp_path / "s.jsonl", workers=0)


class TestBatchedRunner:
    """Group-batched dispatch must be invisible in the store contents."""

    def test_group_tasks_pack_whole_fault_samples(self):
        scenarios = expand_scenarios(
            tiny_spec(
                traffic=("uniform", "hotspot"), faults=(0, 1, 2),
                seeds=range(12),
            )
        )
        # Fault samples share a key: one group per topology.
        assert len({s.group_key() for s in scenarios}) == 2
        buckets = {}
        for i, s in enumerate(scenarios):
            buckets.setdefault((s.group_key(), s.faults), []).append(i)
        assert len(buckets) == 2 * 25 and SLAB_SAMPLES == 16
        for batch in (1, 3, 4, 16, 64):
            slabs = pack_slabs(scenarios, batch)
            for slab in slabs:
                specs = [scenarios[i] for i in slab]
                assert len({s.group_key() for s in specs}) == 1
                assert len(slab) <= batch
                assert len({s.faults for s in specs}) <= SLAB_SAMPLES
            # Within a key, slabs run buckets whole and in first-
            # appearance order.
            for key in {s.group_key() for s in scenarios}:
                got = [
                    i for slab in slabs for i in slab
                    if scenarios[i].group_key() == key
                ]
                want = [
                    i for (k, _), idxs in buckets.items() if k == key
                    for i in idxs
                ]
                assert got == want
            # A bucket is cut only into full slabs of its own, plus a
            # remainder.
            for idxs in buckets.values():
                pieces = [
                    slab for slab in slabs if set(slab) & set(idxs)
                ]
                for piece in pieces[:-1]:
                    assert len(piece) == batch and set(piece) <= set(idxs)
                assert len(pieces) == max(1, -(-len(idxs) // batch))
        # At batch 16: a full slab of the 24 fault-free scenarios, its
        # remainder plus four 2-scenario samples, then eight samples,
        # eight more, and the last four.
        assert [len(slab) for slab in pack_slabs(scenarios, 16)] == [
            16, 16, 16, 16, 8, 16, 16, 16, 16, 8,
        ]
        # At batch 64 the sample cap binds: the fault-free bucket and
        # fifteen samples, then the last nine.
        assert [len(slab) for slab in pack_slabs(scenarios, 64)] == [
            54, 18, 54, 18,
        ]

    def test_batched_store_matches_per_scenario_store(self, tmp_path):
        spec = tiny_spec(traffic=("uniform", "hotspot"))
        run_campaign(spec, tmp_path / "one.jsonl", batch=1)
        run_campaign(spec, tmp_path / "many.jsonl", batch=16)
        assert load_records(tmp_path / "one.jsonl") == load_records(
            tmp_path / "many.jsonl"
        )
        assert dumps_aggregate(
            load_records(tmp_path / "one.jsonl")
        ) == dumps_aggregate(load_records(tmp_path / "many.jsonl"))

    def test_pooled_batched_run_matches_inline(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "inline.jsonl", batch=4)
        run_campaign(spec, tmp_path / "pool.jsonl", batch=4, workers=2)
        assert load_records(tmp_path / "inline.jsonl") == load_records(
            tmp_path / "pool.jsonl"
        )

    def test_interrupted_batched_run_resumes_identically(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "full.jsonl", batch=1)
        want = dumps_aggregate(load_records(tmp_path / "full.jsonl"))
        path = tmp_path / "partial.jsonl"

        class Die(Exception):
            pass

        def bomb(record, done, total):
            if done == 3:
                raise Die

        with pytest.raises(Die):
            run_campaign(spec, path, batch=16, progress=bomb)
        assert len(ResultStore(path)) == 3
        summary = run_campaign(spec, path, batch=16, resume=True)
        assert summary["skipped"] == 3 and summary["ran"] == 5
        assert dumps_aggregate(load_records(path)) == want

    def test_bad_batch_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="batch"):
            run_campaign(tiny_spec(), tmp_path / "s.jsonl", batch=0)

    def test_topology_cache_memoizes_within_a_process(self, tmp_path):
        from repro.spec import NetworkSpec

        doc = {"kind": "catalog", "name": "omega", "n": 4, "label": "om"}
        a = NetworkSpec.from_spec(doc)
        assert a.resolve() is NetworkSpec.from_spec(dict(doc)).resolve()
        from repro.io import dump_network

        path = tmp_path / "net.json"
        dump_network(build_network("omega", 3), path)
        spec = tiny_spec(topologies=(str(path),), faults=(0,), seeds=(0,))
        (scn,) = expand_scenarios(spec)
        pinned = NetworkSpec.from_spec(scn.network.to_spec())
        assert pinned.resolve() is pinned.resolve()
        # Un-pinned file entries are never cached (content unverified).
        unpinned = NetworkSpec.from_spec(
            {k: v for k, v in scn.network.to_spec().items() if k != "digest"}
        )
        assert unpinned.cache_key() is None
        assert unpinned.resolve() is not unpinned.resolve()


class TestResume:
    """Killing a run mid-sweep and resuming == never having been killed."""

    def _uninterrupted(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "full.jsonl"
        run_campaign(spec, path)
        return spec, dumps_aggregate(load_records(path))

    def test_interrupt_then_resume_is_identical(self, tmp_path):
        spec, want = self._uninterrupted(tmp_path)
        path = tmp_path / "partial.jsonl"

        class Die(Exception):
            pass

        def bomb(record, done, total):
            if done == 3:
                raise Die  # the kill, after three stored scenarios

        with pytest.raises(Die):
            run_campaign(spec, path, progress=bomb)
        assert len(ResultStore(path)) == 3
        summary = run_campaign(spec, path, resume=True)
        assert summary["skipped"] == 3 and summary["ran"] == 5
        assert dumps_aggregate(load_records(path)) == want

    def test_torn_write_then_resume_is_identical(self, tmp_path):
        spec, want = self._uninterrupted(tmp_path)
        path = tmp_path / "torn.jsonl"
        run_campaign(spec, path)
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        torn = "".join(lines[:5]) + lines[5][: len(lines[5]) // 2]
        path.write_text(torn)  # SIGKILL mid-append
        summary = run_campaign(spec, path, resume=True)
        assert summary["skipped"] == 4 and summary["ran"] == 4
        assert dumps_aggregate(load_records(path)) == want

    def test_aggregate_is_order_independent(self, tmp_path):
        spec, want = self._uninterrupted(tmp_path)
        records = load_records(tmp_path / "full.jsonl")
        shuffled = ResultStore(tmp_path / "shuffled.jsonl")
        for record in reversed(records):
            shuffled.append(
                record["hash"], record["scenario"], record["report"]
            )
        assert dumps_aggregate(load_records(shuffled)) == want


class TestSlabFill:
    """Reliability slabs fill to ``batch``; a run's first task stays small.

    A reliability sweep runs one scenario per fault sample, so only the
    16-sample cap lets its slabs fill a batch.  The first task is the
    first slab a 4-sample cap packs, cut at
    :data:`~repro.campaign.runner.FIRST_TASK` scenarios, under every
    policy.
    """

    #: The shape of the ``reliability_nested`` benchmark workload.
    NESTED = ReliabilitySweepSpec(
        networks=("omega", "extra_stage_omega"),
        stages=6, max_faults=15, draws=2, cycles=5,
    )
    SMALL = ReliabilitySweepSpec(
        networks=("omega", "extra_stage_omega"),
        stages=4, draws=4, cycles=10,
    )

    @staticmethod
    def _first_task(scenarios, batch, monkeypatch):
        """The run's first task as the rule states it: the first slab a
        4-sample cap packs, cut at its first 4 scenarios."""
        with monkeypatch.context() as m:
            m.setattr(sim_batch, "SLAB_SAMPLES", runner.FIRST_TASK)
            head = [scenarios[i] for i in pack_slabs(scenarios, batch)[0]]
        return head[: runner.FIRST_TASK]

    @pytest.mark.parametrize("batch", [1, 3, 16, 64])
    @pytest.mark.parametrize(
        "spec",
        [
            SMALL.to_campaign(),
            tiny_spec(faults=(0, 1, 2), seeds=range(6)),
            tiny_spec(faults=(0,), seeds=range(6)),
            tiny_spec(faults=(0, 1, 2), seeds=range(6), policy="block"),
        ],
        ids=["reliability", "faulted", "fault-free", "faulted-block"],
    )
    def test_first_task_is_the_four_sample_first_slab(
        self, spec, batch, monkeypatch
    ):
        scenarios = expand_scenarios(spec)
        tasks = runner._pack_tasks(scenarios, batch)
        assert tasks[0] == self._first_task(scenarios, batch, monkeypatch)
        # Only a task boundary moves: the run's scenario order is the
        # slabs' order, so its store is too.
        assert [s for task in tasks for s in task] == [
            scenarios[i] for slab in pack_slabs(scenarios, batch)
            for i in slab
        ]
        assert len(tasks) - len(pack_slabs(scenarios, batch)) in (0, 1)

    def test_run_dispatches_a_small_first_task_then_full_slabs(
        self, tmp_path, monkeypatch
    ):
        groups = []
        real = runner._simulate_spec_batch

        def recording(specs, *args):
            groups.append(list(specs))
            return real(specs, *args)

        monkeypatch.setattr(runner, "_simulate_spec_batch", recording)
        spec = self.SMALL.to_campaign()
        run_campaign(spec, tmp_path / "s.jsonl", batch=16)
        scenarios = expand_scenarios(spec)
        assert groups[0] == self._first_task(scenarios, 16, monkeypatch)
        assert len(groups[0]) == runner.FIRST_TASK
        # The first slab's rest is the second task; after that every
        # task but a topology's last fills the batch.
        assert len(groups[0]) + len(groups[1]) == 16
        for task, following in zip(groups[2:], groups[3:]):
            if following[0].network == task[0].network:
                assert len(task) == 16
        assert max(len({s.faults for s in g}) for g in groups) == 16

    def test_nested_sweep_fills_three_quarters_of_its_slabs(self, tmp_path):
        with obs.tracing() as tr:
            run_campaign(self.NESTED.to_campaign(), tmp_path / "s.jsonl")
        sizes = [
            e["attrs"]["scenarios"] for e in tr.events
            if e["ev"] == "span" and e["name"] == "group"
        ]
        assert sum(sizes) == len(expand_scenarios(self.NESTED.to_campaign()))
        assert sum(sizes) / (16 * len(sizes)) >= 0.75

    def test_stores_are_slab_shape_independent(self, tmp_path):
        spec = self.SMALL.to_campaign()
        runs = [(1, 1), (4, 1), (16, 1), (16, 2)]
        for batch, workers in runs:
            run_campaign(
                spec, tmp_path / f"b{batch}w{workers}.jsonl",
                batch=batch, workers=workers,
            )
        data = {
            run: (tmp_path / "b{}w{}.jsonl".format(*run)).read_bytes()
            for run in runs
        }
        assert data[1, 1] == data[4, 1] == data[16, 1]
        assert sorted(data[16, 2].splitlines()) == sorted(
            data[1, 1].splitlines()
        )
        reports = {
            dumps_reliability(
                reliability_report(
                    load_records(tmp_path / "b{}w{}.jsonl".format(*run))
                )
            )
            for run in runs
        }
        assert len(reports) == 1


class TestStoreBytes:
    """Records hold results only, so reruns write the same bytes."""

    def _spec(self) -> CampaignSpec:
        return tiny_spec(
            topologies=("omega", "baseline", "flip"),
            traffic=("uniform", "hotspot"),
        )

    @staticmethod
    def _sorted_lines(path) -> list[bytes]:
        return sorted(path.read_bytes().splitlines(keepends=True))

    def test_reruns_write_identical_store_files(self, tmp_path):
        spec = self._spec()
        for name, batch in (("a", 16), ("b", 16), ("one", 1)):
            run_campaign(spec, tmp_path / f"{name}.jsonl", batch=batch)
        want = (tmp_path / "a.jsonl").read_bytes()
        assert (tmp_path / "b.jsonl").read_bytes() == want
        assert (tmp_path / "one.jsonl").read_bytes() == want
        assert len(want.splitlines()) == 1 + 24
        assert b"elapsed" not in want

    def test_pooled_and_resumed_stores_match_line_for_line(self, tmp_path):
        spec = self._spec()
        run_campaign(spec, tmp_path / "inline.jsonl")
        want = self._sorted_lines(tmp_path / "inline.jsonl")
        run_campaign(spec, tmp_path / "pool.jsonl", workers=2)
        assert self._sorted_lines(tmp_path / "pool.jsonl") == want
        resumed = tmp_path / "resumed.jsonl"
        run_campaign(spec, resumed, workers=2)
        lines = resumed.read_bytes().splitlines(keepends=True)
        resumed.write_bytes(b"".join(lines[:6]) + lines[6][:40])
        summary = run_campaign(spec, resumed, resume=True, workers=2)
        assert summary["skipped"] == 5 and summary["ran"] == 19
        assert self._sorted_lines(resumed) == want


class TestVersion1Store:
    """Stores written before ``elapsed`` left the records stay usable."""

    def _v1_copy(self, v2_path, v1_path) -> None:
        """Rewrite a v2 store the way version 1 wrote it: a version-1
        header, and an ``elapsed`` field in every report under the crc."""
        lines = v2_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {
            "format": "repro-campaign-store", "version": 2,
        }
        out = [json.dumps({"format": "repro-campaign-store", "version": 1})]
        for i, line in enumerate(lines[1:]):
            record = json.loads(line)
            record["report"]["elapsed"] = 0.001 * (i + 1)
            record["crc"] = record_crc(record)
            out.append(json.dumps(record, sort_keys=True))
        v1_path.write_text("\n".join(out) + "\n", encoding="utf-8")

    def test_v1_store_reads_verifies_aggregates_and_resumes(
        self, tmp_path
    ):
        from repro.__main__ import main

        spec = tiny_spec()
        v2, v1 = tmp_path / "v2.jsonl", tmp_path / "v1.jsonl"
        run_campaign(spec, v2)
        self._v1_copy(v2, v1)
        assert all("elapsed" in r["report"] for r in load_records(v1))
        assert ResultStore(v1).reports() == ResultStore(v2).reports()
        assert ResultStore(v1).verify()["ok"]
        assert main(["campaign", "store", "verify", "--store", str(v1)]) == 0
        assert dumps_aggregate(load_records(v1)) == dumps_aggregate(
            load_records(v2)
        )
        before = v1.read_bytes()
        summary = run_campaign(spec, v1, resume=True)
        assert summary["ran"] == 0 and summary["skipped"] == 8
        assert v1.read_bytes() == before

    def test_partial_v1_store_resumes_to_the_same_aggregate(self, tmp_path):
        spec = tiny_spec()
        v2, v1 = tmp_path / "v2.jsonl", tmp_path / "v1.jsonl"
        run_campaign(spec, v2)
        self._v1_copy(v2, v1)
        lines = v1.read_text(encoding="utf-8").splitlines(keepends=True)
        v1.write_text("".join(lines[:4]), encoding="utf-8")
        summary = run_campaign(spec, v1, resume=True)
        assert summary["skipped"] == 3 and summary["ran"] == 5
        assert v1.read_text(encoding="utf-8").startswith(lines[0])
        assert ResultStore(v1).verify()["ok"]
        assert dumps_aggregate(load_records(v1)) == dumps_aggregate(
            load_records(v2)
        )

    def test_repair_keeps_the_v1_header(self, tmp_path):
        v2, v1 = tmp_path / "v2.jsonl", tmp_path / "v1.jsonl"
        run_campaign(tiny_spec(seeds=(0,)), v2)
        self._v1_copy(v2, v1)
        lines = v1.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "{broken\n"
        v1.write_text("".join(lines), encoding="utf-8")
        assert ResultStore(v1).repair()["dropped"] == 1
        assert v1.read_text(encoding="utf-8").startswith(lines[0])
        assert ResultStore(v1).verify() == {
            "path": str(v1), "records": 3, "bad": [], "ok": True,
        }


class TestAggregation:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        spec = tiny_spec(topologies=("omega", "baseline", "flip"))
        path = tmp_path_factory.mktemp("agg") / "s.jsonl"
        run_campaign(spec, path)
        return load_records(path)

    def test_rows_group_over_seeds(self, records):
        rows = aggregate_rows(records)
        # 3 topologies x 2 fault levels, each averaging the 2 seeds.
        assert len(rows) == 6
        assert all(row["seeds"] == 2 for row in rows)
        assert all(0.0 < row["throughput_mean"] <= 1.0 for row in rows)

    def test_equivalent_topologies_match(self, records):
        entries = head_to_head(records)
        # 3 pairs x 2 fault levels, all under identical traffic + faults.
        assert len(entries) == 6
        assert all(not e["divergent"] for e in entries)

    def test_faults_hurt_throughput(self, records):
        rows = {
            (r["topology"], r["fault_cells"]): r["throughput_mean"]
            for r in aggregate_rows(records)
        }
        for topo in ("omega(3)", "baseline(3)", "flip(3)"):
            assert rows[(topo, 2)] < rows[(topo, 0)]

    def test_synthetic_divergence_is_flagged(self, records):
        import copy

        slow = copy.deepcopy(records)
        for record in slow:
            if record["scenario"]["topology"]["label"] == "omega(3)":
                record["report"]["delivered"] //= 2
        entries = head_to_head(slow)
        flagged = {
            (e["topology_a"], e["topology_b"])
            for e in entries
            if e["divergent"]
        }
        assert ("baseline(3)", "omega(3)") in flagged
        assert ("baseline(3)", "flip(3)") not in flagged

    def test_tables_render(self, records):
        table = aggregate_table(aggregate_rows(records))
        assert "omega(3)" in table and "thrpt" in table
        h2h = head_to_head_table(head_to_head(records))
        assert "equivalence holds empirically" in h2h

    def test_benes_never_compared_to_square_networks(self, tmp_path):
        # Different shape (5 stages x 4 cells vs 3 x 4) => no pairing.
        spec = tiny_spec(
            topologies=("omega", "benes"), faults=(0,), seeds=(0,)
        )
        run_campaign(spec, tmp_path / "s.jsonl")
        assert head_to_head(load_records(tmp_path / "s.jsonl")) == []

    def test_aggregate_json_excludes_elapsed(self, records):
        doc = json.loads(dumps_aggregate(records))
        assert doc["format"] == "repro-campaign-aggregate"
        assert "elapsed" not in json.dumps(doc)

    def test_mixed_sweeps_in_one_cell_rejected(
        self, records, reduce_records, same_run_message
    ):
        import copy

        # Two results for the same grid cell + seed under different
        # hashes (e.g. a topology file changed between runs) must not be
        # silently averaged.
        evil = copy.deepcopy(records[0])
        evil["hash"] = "f" * 16
        evil["report"]["delivered"] += 1
        with pytest.raises(
            ReproError, match=same_run_message(records[0], evil["hash"])
        ):
            reduce_records([*records, evil])

    def test_literal_duplicate_records_count_once(
        self, records, reduce_records
    ):
        assert reduce_records([*records, records[0]]) == reduce_records(
            records
        )


class TestCampaignCLI:
    def _run(self, tmp_path, *extra):
        from repro.__main__ import main

        store = tmp_path / "sweep.jsonl"
        argv = [
            "campaign", "run",
            "--topologies", "omega", "baseline",
            "--stages", "3",
            "--rates", "0.8",
            "--fault-cells", "0", "2",
            "--seeds", "0", "1",
            "--cycles", "30",
            "--store", str(store),
            *extra,
        ]
        assert main(argv) == 0
        return store

    def test_run_and_report(self, tmp_path, capsys):
        store = self._run(tmp_path, "--quiet")
        out = capsys.readouterr().out
        assert "campaign complete: 8 scenarios (0 resumed, 8 run)" in out
        from repro.__main__ import main

        agg = tmp_path / "agg.json"
        assert main(
            ["campaign", "report", "--store", str(store),
             "--json", str(agg)]
        ) == 0
        out = capsys.readouterr().out
        assert "equivalence head-to-head" in out
        assert "0 divergent" in out
        assert json.loads(agg.read_text())["n_scenarios"] == 8

    def test_progress_lines(self, tmp_path, capsys):
        self._run(tmp_path)
        out = capsys.readouterr().out
        assert "[8/8]" in out

    def test_batch_flag(self, tmp_path, capsys):
        batched = self._run(tmp_path, "--quiet", "--batch", "4")
        out = capsys.readouterr().out
        assert "campaign complete: 8 scenarios (0 resumed, 8 run)" in out
        sequential = tmp_path / "seq.jsonl"
        from repro.__main__ import main

        assert main([
            "campaign", "run",
            "--topologies", "omega", "baseline",
            "--stages", "3", "--rates", "0.8",
            "--fault-cells", "0", "2", "--seeds", "0", "1",
            "--cycles", "30", "--store", str(sequential),
            "--batch", "1", "--quiet",
        ]) == 0
        assert load_records(batched) == load_records(sequential)

    def test_status_and_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        store = self._run(tmp_path, "--quiet", "--save-spec",
                          str(tmp_path / "grid.json"))
        capsys.readouterr()
        spec = str(tmp_path / "grid.json")
        assert main(
            ["campaign", "status", "--spec", spec, "--store", str(store)]
        ) == 0
        assert "8/8 scenarios stored" in capsys.readouterr().out
        assert main(
            ["campaign", "run", "--spec", spec, "--store", str(store),
             "--resume", "--quiet"]
        ) == 0
        assert "(8 resumed, 0 run)" in capsys.readouterr().out

    def test_status_incomplete_exits_nonzero(self, tmp_path, capsys):
        from repro.__main__ import main

        store = self._run(tmp_path, "--quiet", "--save-spec",
                          str(tmp_path / "grid.json"))
        text = store.read_text().splitlines(keepends=True)
        store.write_text("".join(text[:-2]))
        assert main(
            ["campaign", "status", "--spec", str(tmp_path / "grid.json"),
             "--store", str(store)]
        ) == 1
        assert "missing" in capsys.readouterr().out

    def test_report_empty_store_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(
            ["campaign", "report", "--store", str(tmp_path / "none.jsonl")]
        ) == 1
        assert "no records" in capsys.readouterr().out

    def test_run_requires_spec_or_topologies(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["campaign", "run", "--store", str(tmp_path / "s.jsonl")])


class TestTrafficSpecs:
    """Traffic has one wire form: :class:`~repro.spec.scenario.TrafficSpec`."""

    @staticmethod
    def _specs() -> list:
        # Every registered pattern: names() lists the public ones, and
        # the hidden "permutation" needs its perm list.
        from repro.sim import TRAFFIC_PATTERNS

        return [
            *(TrafficSpec.of(name, 0.5) for name in TRAFFIC_PATTERNS.names()),
            TrafficSpec.of("hotspot", 0.7, fraction=0.4, hotspots=[1, 2]),
            TrafficSpec.of("permutation", 0.9, perm=[2, 0, 3, 1, 5, 4, 7, 6]),
        ]

    def test_round_trip_all_registered(self):
        import numpy as np

        names = {spec.name for spec in self._specs()}
        assert {"uniform", "hotspot", "permutation"} <= names
        network = NetworkSpec.catalog("omega", n=3)
        for spec in self._specs():
            again = TrafficSpec.from_spec(json.loads(json.dumps(spec.to_spec())))
            assert again == spec and again.to_spec() == spec.to_spec()
            assert (
                ScenarioSpec(network=network, traffic=again).digest
                == ScenarioSpec(network=network, traffic=spec).digest
            )
            want = spec.resolve().destinations(np.random.default_rng(7), 8, 16)
            got = again.resolve().destinations(np.random.default_rng(7), 8, 16)
            assert np.array_equal(got, want)

    def test_hotspot_keeps_parameters(self):
        from repro.sim import HotspotTraffic

        spec = TrafficSpec.of("hotspot", 0.7, fraction=0.4, hotspots=[1, 2])
        again = TrafficSpec.from_spec(spec.to_spec()).resolve()
        assert isinstance(again, HotspotTraffic)
        assert again.fraction == 0.4 and again.hotspots == (1, 2)
        # Nothing is default-filled: a default hotspot spec hashes only
        # the name and the rate.
        assert TrafficSpec.of("hotspot", 0.5).to_spec() == {
            "name": "hotspot",
            "rate": 0.5,
        }

    def test_permutation_round_trip(self):
        import numpy as np

        from repro.permutations.permutation import Permutation
        from repro.sim import PermutationTraffic

        perm = Permutation(np.array([2, 0, 3, 1]))
        spec = TrafficSpec.of("permutation", 0.9, perm=perm.images.tolist())
        again = TrafficSpec.from_spec(spec.to_spec()).resolve()
        assert isinstance(again, PermutationTraffic)
        assert again.perm == perm and again.rate == 0.9

    def test_bad_specs_rejected(self):
        from repro.core.errors import UnknownTrafficError

        with pytest.raises(ReproError, match="name"):
            TrafficSpec.from_spec({"rate": 0.5})
        with pytest.raises(ReproError, match="perm"):
            TrafficSpec.from_spec({"name": "permutation", "rate": 0.5})
        with pytest.raises(ReproError, match="bogus"):
            TrafficSpec.from_spec(
                {"name": "permutation", "perm": [1, 0], "bogus": 1}
            )
        with pytest.raises(UnknownTrafficError, match="uniform"):
            TrafficSpec.from_spec({"name": "warp", "rate": 0.5})


class TestZeroCopyWorkers:
    """Pooled workers vs inline dispatch: one executor, one result path."""

    def test_pool_matches_inline(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "inline.jsonl", workers=1)
        summary = run_campaign(spec, tmp_path / "pool.jsonl", workers=2)
        assert load_records(tmp_path / "inline.jsonl") == load_records(
            tmp_path / "pool.jsonl"
        )
        assert summary["ran"] == 8
        # Worker-side compile activity is aggregated into the summary.
        assert summary["compile_cache"]["misses"] >= 1

    def test_backend_knob_does_not_change_results(self, tmp_path):
        spec = tiny_spec(seeds=(0,), faults=(0,))
        run_campaign(spec, tmp_path / "auto.jsonl", workers=1)
        run_campaign(
            spec, tmp_path / "numpy.jsonl", workers=1, backend="numpy"
        )
        assert load_records(tmp_path / "auto.jsonl") == load_records(
            tmp_path / "numpy.jsonl"
        )

    def test_bad_backend_fails_before_any_work(self, tmp_path):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            run_campaign(
                tiny_spec(), tmp_path / "s.jsonl", backend="cuda"
            )
        assert not (tmp_path / "s.jsonl").exists()
