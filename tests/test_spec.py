"""Tests for the unified spec layer: registries and typed scenario specs.

The load-bearing properties: ``ScenarioSpec → JSON → ScenarioSpec`` is
the identity, digests are a canonical function of the wire dict (key
order never matters) and — crucially for every store already written —
frozen bit for bit (a pinned digest guards it); and the registries guard
their names.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    ReproError,
    UnknownNetworkError,
    UnknownTrafficError,
)
from repro.core.midigraph import MIDigraph
from repro.networks.catalog import (
    NETWORK_CATALOG,
    build_network,
    register_network,
)
from repro.networks.omega import omega
from repro.permutations import Permutation
from repro.routing.rearrangeable import benes_switch_settings
from repro.sim import UniformTraffic, simulate, simulate_batch
from repro.sim.engine import schedule_from_switch_settings
from repro.sim.faults import FaultSet
from repro.spec import (
    FaultSpec,
    NetworkSpec,
    Param,
    Registry,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
    scenario_digest,
)


# -- strategies ------------------------------------------------------------

networks = st.one_of(
    st.builds(
        lambda name, n: NetworkSpec.catalog(name, n=n),
        st.sampled_from(["omega", "baseline", "flip", "benes"]),
        st.integers(min_value=2, max_value=6),
    ),
    st.builds(
        lambda n, k: NetworkSpec.catalog("omega_k", n=n, k=k),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=3),
    ),
)

traffics = st.one_of(
    st.builds(
        lambda rate: TrafficSpec.of("uniform", rate),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    st.builds(
        lambda rate, fraction: TrafficSpec.of(
            "hotspot", rate, fraction=fraction, hotspots=[0, 1]
        ),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.just(TrafficSpec.of("bitrev")),
    st.builds(
        lambda rate: TrafficSpec.of("permutation", rate, perm=[1, 0, 3, 2]),
        st.floats(min_value=0.05, max_value=1.0),
    ),
)

policies = st.builds(
    SimPolicy,
    cycles=st.integers(min_value=1, max_value=500),
    policy=st.sampled_from(["drop", "block"]),
    drain=st.booleans(),
)

fault_specs = st.builds(
    FaultSpec,
    cells=st.integers(min_value=0, max_value=3),
    links=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

scenarios = st.builds(
    ScenarioSpec,
    network=networks,
    traffic=traffics,
    sim=policies,
    faults=fault_specs,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenarios)
    def test_spec_json_spec_is_identity(self, spec):
        doc = json.loads(json.dumps(spec.to_spec()))
        again = ScenarioSpec.from_spec(doc)
        assert again == spec
        assert again.to_spec() == spec.to_spec()
        assert again.digest == spec.digest
        assert again.group_key() == spec.group_key()

    @settings(max_examples=60, deadline=None)
    @given(scenarios, st.randoms())
    def test_digest_insensitive_to_key_order(self, spec, rng):
        doc = spec.to_spec()
        keys = list(doc)
        rng.shuffle(keys)
        shuffled = {k: doc[k] for k in keys}
        tkeys = list(shuffled["topology"])
        rng.shuffle(tkeys)
        shuffled["topology"] = {k: doc["topology"][k] for k in tkeys}
        assert scenario_digest(shuffled) == spec.digest
        assert ScenarioSpec.from_spec(shuffled) == spec

    def test_file_digest_ignores_path_spelling(self, tmp_path):
        from repro.io import dump_network

        path = tmp_path / "net.json"
        dump_network(omega(4), path)
        (tmp_path / "sub").mkdir()
        a = NetworkSpec.file(path, label="saved").pin()
        b = NetworkSpec.file(
            tmp_path / "sub" / ".." / "net.json", label="saved"
        ).pin()
        sa = ScenarioSpec(network=a, traffic=TrafficSpec.of("uniform"))
        sb = ScenarioSpec(network=b, traffic=TrafficSpec.of("uniform"))
        assert sa.network.to_spec()["path"] != sb.network.to_spec()["path"]
        assert sa.digest == sb.digest

    @settings(max_examples=30, deadline=None)
    @given(scenarios)
    def test_memoized_identity_is_the_wire_identity(self, spec):
        digest, key = spec.digest, spec.group_key()
        assert spec.__dict__["digest"] == digest   # memoized on the spec
        assert spec.digest is digest and spec.group_key() is key
        fresh = ScenarioSpec.from_spec(spec.to_spec())
        assert fresh.digest == digest and fresh.group_key() == key
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec
        assert again.digest == digest and again.group_key() == key
        # A changed copy is a new object with its own memo.
        moved = replace(spec, seed=spec.seed + 1)
        assert moved.digest != digest and moved.group_key() == key

    def test_legacy_hash_is_preserved(self):
        # Pinned digest: every store already written is keyed by this
        # function, so it must never change.
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=4, label="omega(4)"),
            traffic=TrafficSpec.of("uniform", 0.6),
            sim=SimPolicy(cycles=60, policy="drop", drain=False),
            seed=0,
        )
        assert spec.digest == "892d6e450190c9dc"

    def test_from_spec_rejects_unknown_fields(self):
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform"),
        )
        doc = spec.to_spec()
        with pytest.raises(ReproError, match="bogus"):
            ScenarioSpec.from_spec({**doc, "bogus": 1})
        with pytest.raises(ReproError, match="traffic"):
            ScenarioSpec.from_spec({"topology": doc["topology"]})


class TestRegistry:
    def test_reregistration_requires_overwrite(self):
        reg = Registry("widget")

        @reg.register("a", params={"n": int})
        def build_a(n):
            return ("a", n)

        with pytest.raises(ReproError, match="already registered"):
            reg.register("a")(build_a)

        @reg.register("a", params={"n": int}, overwrite=True)
        def build_a2(n):
            return ("a2", n)

        assert reg.build("a", n=1) == ("a2", 1)

    def test_unknown_names_carry_candidates(self):
        reg = Registry("widget")
        reg.register("alpha")(lambda: None)
        reg.register("beta")(lambda: None)
        with pytest.raises(ReproError) as err:
            reg.get("gamma")
        assert err.value.candidates == ("alpha", "beta")

    def test_param_schema_validates(self):
        reg = Registry("widget")

        @reg.register(
            "w", params={"n": int, "k": Param(int, default=2)}
        )
        def build(n, k=2):
            return (n, k)

        assert reg.build("w", n=3) == (3, 2)
        assert reg.build("w", n=3, k=5) == (3, 5)
        with pytest.raises(ReproError, match="requires"):
            reg.build("w")
        with pytest.raises(ReproError, match="unexpected"):
            reg.build("w", n=3, z=1)
        with pytest.raises(ReproError, match="must be"):
            reg.build("w", n="three")
        with pytest.raises(ReproError, match="must be"):
            reg.build("w", n=True)

    def test_network_registry_dict_surface(self):
        assert "omega" in NETWORK_CATALOG
        assert sorted(NETWORK_CATALOG) == NETWORK_CATALOG.names()
        assert NETWORK_CATALOG["omega"](4) == omega(4)
        assert dict(NETWORK_CATALOG.items())["omega"](3) == omega(3)

    def test_plugin_round_trips_through_scenarios(self):
        @register_network("spec_test_net", params={"n": int})
        def build(n):
            return omega(n)

        try:
            spec = ScenarioSpec(
                network=NetworkSpec.catalog("spec_test_net", n=3),
                traffic=TrafficSpec.of("uniform"),
                sim=SimPolicy(cycles=20),
            )
            again = ScenarioSpec.from_spec(
                json.loads(json.dumps(spec.to_spec()))
            )
            assert again == spec
            assert simulate(spec).network == "spec_test_net(3)"
        finally:
            NETWORK_CATALOG.unregister("spec_test_net")
        with pytest.raises(UnknownNetworkError):
            NetworkSpec.catalog("spec_test_net", n=3)


class TestRadixEntries:
    def test_radix2_matches_binary_constructions(self):
        for n in (3, 4, 5):
            assert build_network("omega_k", n) == build_network("omega", n)
            assert build_network("baseline_k", n, k=2) == build_network(
                "baseline", n
            )

    def test_radix_k_builds_but_does_not_simulate(self):
        net = build_network("omega_k", 3, k=3)
        assert not isinstance(net, MIDigraph)
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega_k", n=3, k=3),
            traffic=TrafficSpec.of("uniform"),
        )
        with pytest.raises(ReproError, match="k=2"):
            simulate(spec)

    def test_file_entry_is_a_registry_build(self, tmp_path):
        from repro.io import dump_network

        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        assert build_network("file", path=str(path)) == omega(3)
        with pytest.raises(ReproError, match="digest"):
            build_network("file", path=str(path), digest="0" * 16)


def _engine_form(spec: ScenarioSpec, **kwargs):
    """``simulate``'s engine form, each input of ``spec`` decoded on its
    own: the registries build the network and traffic, and
    ``FaultSet.from_counts`` the fault set."""
    net = spec.network.resolve()
    faults = FaultSet.from_counts(
        net.n_stages,
        net.size,
        cells=spec.faults.cells,
        links=spec.faults.links,
        seed=spec.faults.seed,
    )
    return simulate(
        net,
        spec.traffic.resolve(),
        cycles=spec.sim.cycles,
        policy=spec.sim.policy,
        drain=spec.sim.drain,
        seed=spec.seed,
        faults=faults,
        network_name=spec.label,
        **kwargs,
    )


_POLICY_CASES = pytest.mark.parametrize(
    "sim",
    [SimPolicy(cycles=60), SimPolicy(cycles=60, policy="block", drain=True)],
    ids=["drop", "block-drain"],
)
_FAULT_CASES = pytest.mark.parametrize(
    "faults",
    [FaultSpec(), FaultSpec(cells=1, seed=7), FaultSpec(cells=2, links=1, seed=7)],
    ids=["healthy", "cells", "cells-links"],
)


class TestResolution:
    @_POLICY_CASES
    @_FAULT_CASES
    def test_simulate_spec_equals_engine_form(self, sim, faults):
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=4),
            traffic=TrafficSpec.of("hotspot", 0.8, fraction=0.3),
            sim=sim,
            faults=faults,
            seed=3,
        )
        assert simulate(spec) == _engine_form(spec)

    @_POLICY_CASES
    @_FAULT_CASES
    def test_scheduled_spec_equals_engine_form(self, sim, faults):
        # The looping algorithm's schedule for benes(3), passed to the
        # spec form alongside the spec.
        perm = Permutation(np.random.default_rng(7).permutation(8))
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("benes", n=3),
            traffic=TrafficSpec.of(
                "permutation", 0.9, perm=list(perm.images)
            ),
            sim=sim,
            faults=faults,
            seed=3,
        )
        sched = schedule_from_switch_settings(
            spec.network.resolve(), benes_switch_settings(perm)
        )
        report = simulate(spec, port_schedule=sched)
        assert report == _engine_form(spec, port_schedule=sched)

    def test_simulate_spec_rejects_overrides(self):
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform"),
        )
        with pytest.raises(ReproError, match="spec"):
            simulate(spec, cycles=10)

    def test_batch_of_specs_matches_sequential(self):
        specs = [
            ScenarioSpec(
                network=NetworkSpec.catalog(name, n=4),
                traffic=TrafficSpec.of("uniform", 0.9),
                sim=SimPolicy(cycles=40),
                seed=seed,
            )
            for name in ("omega", "baseline")
            for seed in (0, 1, 2)
        ]
        batched = simulate_batch(specs)
        for spec, rep in zip(specs, batched):
            assert rep.to_dict() == simulate(spec).to_dict()

    def test_network_memo_is_shared_across_specs(self):
        a = NetworkSpec.catalog("omega", n=5)
        b = NetworkSpec.catalog("omega", n=5, label="other")
        assert a.resolve() is b.resolve()

    def test_overwrite_invalidates_the_network_memo(self):
        from repro.networks.flip import flip

        @register_network("spec_memo_net", params={"n": int})
        def build_v1(n):
            return omega(n)

        try:
            spec = NetworkSpec.catalog("spec_memo_net", n=4)
            assert spec.resolve() == omega(4)

            @register_network(
                "spec_memo_net", params={"n": int}, overwrite=True
            )
            def build_v2(n):
                return flip(n)

            # Same name and params, new builder: the memo must miss.
            assert NetworkSpec.catalog("spec_memo_net", n=4).resolve() == flip(4)
        finally:
            NETWORK_CATALOG.unregister("spec_memo_net")

    def test_empty_spec_batch_returns_empty(self):
        assert simulate_batch([]) == []

    def test_permutation_is_spec_only(self):
        # Buildable through specs (campaign entries carry the perm list)
        # but hidden from names() so CLI --traffic choices stay flag-
        # constructible.
        from repro.sim.traffic import TRAFFIC_PATTERNS

        assert "permutation" in TRAFFIC_PATTERNS
        assert "permutation" not in TRAFFIC_PATTERNS.names()
        assert TrafficSpec.of("permutation", perm=[1, 0]).resolve()


class TestScenarioIO:
    def test_repro_scenario_file_round_trip(self, tmp_path):
        from repro.io import dump_scenario, load_scenario

        spec = ScenarioSpec(
            network=NetworkSpec.catalog("benes", n=3),
            traffic=TrafficSpec.of(
                "permutation", 0.7, perm=[int(i) for i in range(15, -1, -1)]
            ),
            sim=SimPolicy(cycles=30, drain=True),
            seed=5,
        )
        path = tmp_path / "scn.json"
        dump_scenario(spec, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-scenario" and doc["version"] == 1
        assert load_scenario(path) == spec

    def test_store_parses_back_to_specs(self, tmp_path):
        from repro.campaign import CampaignSpec, ResultStore, run_campaign

        grid = CampaignSpec(
            topologies=("omega",), stages=(3,), rates=(0.8,),
            seeds=(0, 1), cycles=20,
        )
        run_campaign(grid, tmp_path / "s.jsonl")
        specs = ResultStore(tmp_path / "s.jsonl").scenario_specs()
        assert len(specs) == 2
        for digest, spec in specs.items():
            assert isinstance(spec, ScenarioSpec)
            assert spec.digest == digest


class TestValidation:
    def test_traffic_spec_guards(self):
        with pytest.raises(UnknownTrafficError):
            TrafficSpec.of("warp")
        with pytest.raises(ReproError, match="rate"):
            TrafficSpec(name="uniform", params={"rate": 0.5})
        with pytest.raises(ReproError, match="fraction"):
            TrafficSpec.of("hotspot", fraction=1.5)
        with pytest.raises(ReproError, match="perm"):
            TrafficSpec.of("permutation")

    def test_network_spec_guards(self):
        with pytest.raises(UnknownNetworkError, match="omega"):
            NetworkSpec.catalog("hypercube", n=4)
        with pytest.raises(ReproError, match="requires"):
            NetworkSpec.catalog("omega")
        with pytest.raises(ReproError, match="unexpected"):
            NetworkSpec.catalog("omega", n=4, k=3)

    @pytest.mark.parametrize("drain", [1, 0, "no"])
    def test_drain_must_be_a_bool(self, drain):
        # A coerced 1 would run as True but serialize as 1: two digests
        # for one sweep.  ``"no"`` would silently run as True.
        with pytest.raises(ReproError, match="drain must be a bool"):
            SimPolicy(drain=drain)
        with pytest.raises(ReproError, match="drain must be a bool"):
            simulate(omega(3), UniformTraffic(0.5), cycles=5, drain=drain)

    def test_policy_and_fault_guards(self):
        with pytest.raises(ReproError, match="cycles"):
            SimPolicy(cycles=0)
        with pytest.raises(ReproError, match="policy"):
            SimPolicy(policy="teleport")
        with pytest.raises(ReproError, match="counts"):
            FaultSpec(cells=-1)
        with pytest.raises(ReproError, match="seed"):
            ScenarioSpec(
                network=NetworkSpec.catalog("omega", n=3),
                traffic=TrafficSpec.of("uniform"),
                seed=-1,
            )


class TestExecutionHints:
    """Backend and compile cache: execution choices, never spec fields."""

    def test_backend_and_cache_are_validated(self):
        # Validated where it is given, even when there is no work.
        with pytest.raises(ReproError, match="backend"):
            simulate_batch([], backend="gpu")

    def test_hints_stay_out_of_the_wire_dict(self):
        # SimPolicy says what a run computes and nothing else.
        assert [f.name for f in fields(SimPolicy)] == [
            "cycles", "policy", "drain",
        ]
        for hint in ("backend", "compile_cache"):
            with pytest.raises(TypeError):
                SimPolicy(**{hint: None})
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.7),
            sim=SimPolicy(cycles=50),
        )
        wire = json.dumps(spec.to_spec())
        assert "backend" not in wire and "compile_cache" not in wire
