"""The run-owned traffic schedule store.

Theorem 1 compares baseline-equivalent topologies under identical
inputs, so a sweep runs each ``(traffic, seed)`` on every topology and
fault level.  A :class:`~repro.sim.traffic.ScheduleStore` draws each
such schedule once per campaign run (or pool worker, or
``simulate_batch(specs)`` call) and copies it into every slab that
runs it.  These tests pin that:

* the records of a three-topology faulted grid, inline, pooled and
  per-scenario, equal a per-point engine-form replay that never touches
  a store;
* every run starts cold, and nothing persists across standalone calls;
* stored schedules are read-only, and specs that differ in the traffic
  wire form, the seed, ``n_inputs`` or ``cycles`` never share an entry;
* the store fills up to its byte budget and then keeps nothing more,
  and traced runs count its hits and misses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    expand_scenarios,
    load_records,
    run_campaign,
)
from repro.networks.omega import omega
from repro.obs import schema
from repro.obs.metrics import metrics
from repro.sim import FaultSet, UniformTraffic, simulate, simulate_batch
from repro.sim import batch as sim_batch
from repro.sim import compiled
from repro.sim import traffic as sim_traffic
from repro.sim.batch import _simulate_spec_batch
from repro.sim.compiled import CompileCache
from repro.sim.traffic import ScheduleStore
from repro.spec import NetworkSpec, ScenarioSpec, SimPolicy, TrafficSpec

GRID = CampaignSpec(
    topologies=("omega", "baseline", "flip"),
    stages=(4,),
    traffic=("uniform", {"name": "hotspot", "fraction": 0.3}),
    rates=(0.8,),
    faults=(0, 2, {"cells": 1, "links": 2}),
    seeds=(0, 1),
    cycles=40,
)
#: Distinct (traffic, seed) schedules of ``GRID``: 2 traffics x 2 seeds.
GRID_KEYS = 4


def _replay(spec: CampaignSpec) -> dict:
    """Each scenario alone through the engine form: digest -> (wire
    scenario, report dict)."""
    records = {}
    for s in expand_scenarios(spec):
        net = s.network.resolve()
        faults = FaultSet.from_counts(
            net.n_stages, net.size, cells=s.faults.cells,
            links=s.faults.links, seed=s.faults.seed,
        )
        report = simulate(
            net, s.traffic.resolve(), cycles=s.sim.cycles,
            policy=s.sim.policy, drain=s.sim.drain, seed=s.seed,
            faults=faults, network_name=s.label,
        )
        records[s.digest] = (s.to_spec(), report.to_dict())
    return records


def _spec(net="omega", n=3, traffic=None, seed=1, cycles=30):
    return ScenarioSpec(
        network=NetworkSpec.catalog(net, n=n),
        traffic=traffic or TrafficSpec.of("uniform", 0.7),
        sim=SimPolicy(cycles=cycles),
        seed=seed,
    )


@pytest.fixture()
def draws(monkeypatch):
    """Count the schedules the stores draw (misses), by traffic name."""
    drawn = []
    real = sim_traffic._draw_schedule

    def counting(traffic, seed, n_inputs, cycles):
        drawn.append((traffic.name, seed, n_inputs, cycles))
        return real(traffic, seed, n_inputs, cycles)

    monkeypatch.setattr(sim_traffic, "_draw_schedule", counting)
    return drawn


class TestSharedDraws:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(batch=16), dict(batch=16, workers=2), dict(batch=1)],
        ids=["inline", "workers2", "batch1"],
    )
    def test_grid_matches_engine_form_replay(
        self, tmp_path, monkeypatch, kwargs
    ):
        summary = run_campaign(GRID, tmp_path / "s.jsonl", **kwargs)
        stored = {
            r["hash"]: (r["scenario"], r["report"])
            for r in load_records(tmp_path / "s.jsonl")
        }
        total = GRID.n_scenarios
        traffic = summary["traffic_cache"]
        assert traffic["hits"] + traffic["misses"] == total
        if kwargs.get("workers", 1) == 1:
            # One store for the run: every key drawn once, whatever the
            # slab shape.
            assert traffic == {"hits": total - GRID_KEYS, "misses": GRID_KEYS}
        else:
            # One store per worker: a key is drawn at most once by each.
            assert GRID_KEYS <= traffic["misses"] <= 2 * GRID_KEYS

        def untouched(*args, **kw):
            raise AssertionError("the engine form reached a schedule store")

        monkeypatch.setattr(ScheduleStore, "schedule", untouched)
        assert stored == _replay(GRID)

    def test_every_run_starts_cold(self, tmp_path):
        first = run_campaign(GRID, tmp_path / "a.jsonl")["traffic_cache"]
        second = run_campaign(GRID, tmp_path / "b.jsonl")["traffic_cache"]
        assert first == second
        assert first["misses"] == GRID_KEYS

    def test_standalone_call_shares_draws_and_keeps_none(self, draws):
        specs = [_spec(net) for net in ("omega", "baseline", "flip")]
        reports = simulate_batch(specs)
        assert len(draws) == 1
        assert reports == [simulate(s) for s in specs]
        assert compiled._DEFAULT.schedules.nbytes == 0
        simulate_batch(specs)
        assert len(draws) == 2      # the second call drew again

    def test_engine_form_draws_every_scenario(self, monkeypatch, draws):
        engine = []
        real = sim_batch._draw_schedule
        monkeypatch.setattr(
            sim_batch, "_draw_schedule",
            lambda *a: engine.append(a) or real(*a),
        )
        pattern = UniformTraffic(0.6)
        simulate_batch(omega(3), [pattern, pattern], cycles=20)
        assert len(engine) == 2 and not draws


class TestEntries:
    def test_stored_schedule_is_read_only(self):
        store = ScheduleStore()
        traffic = TrafficSpec.of("uniform", 0.5)
        tid = '{"name":"uniform","rate":0.5}'
        tmat = store.schedule(tid, traffic.resolve(), 3, 16, 20)
        assert tmat.dtype == np.int16 and not tmat.flags.writeable
        with pytest.raises(ValueError):
            tmat[0, 0] = 1
        assert store.schedule(tid, traffic.resolve(), 3, 16, 20) is tmat
        assert (store.hits, store.misses) == (1, 1)
        # The same draw the engine form makes.
        want = traffic.resolve().destinations(
            np.random.default_rng(3), 16, 20
        )
        assert np.array_equal(tmat, want)

    def test_keys_never_collide(self, draws):
        base = _spec()
        variants = [
            base,
            # Traffic wire form: another pattern, another rate, and the
            # hotspot default fraction given explicitly (the same draws,
            # but a different wire form and digest).
            _spec(traffic=TrafficSpec.of("hotspot", 0.7)),
            _spec(traffic=TrafficSpec.of("hotspot", 0.7, fraction=0.25)),
            _spec(traffic=TrafficSpec.of("uniform", 0.8)),
            _spec(seed=2),
            _spec(n=4),             # n_inputs 16 instead of 8
            _spec(cycles=31),
        ]
        cache = CompileCache()
        reports = _simulate_spec_batch(variants, "numpy", cache)
        store = cache.schedules
        assert (store.hits, store.misses) == (0, len(variants))
        assert len(store._entries) == len(variants) == len(draws)
        assert reports == [simulate(s) for s in variants]
        # Only the topology differs: one entry serves both.
        _simulate_spec_batch([_spec(net="baseline")], "numpy", cache)
        assert (store.hits, store.misses) == (1, len(variants))

    def test_budget_fills_then_stops_keeping(self, monkeypatch):
        one = 20 * 16 * 2                   # a (20, 16) int16 schedule
        monkeypatch.setattr(sim_traffic, "SCHEDULE_STORE_BYTES", 2 * one)
        store = ScheduleStore()
        pattern = UniformTraffic(0.5)
        # Three topologies ask for seeds 0, 1, 2 in turn: the two kept
        # first hit on every later topology, the third is drawn each time.
        for _ in range(3):
            for seed in (0, 1, 2):
                store.schedule("u", pattern, seed, 16, 20)
        assert store.nbytes == 2 * one
        assert [key[1] for key in store._entries] == [0, 1]
        assert (store.hits, store.misses) == (4, 5)
        # A schedule larger than the whole budget is drawn, not kept.
        store.clear()
        big = store.schedule("u", pattern, 9, 16, 100)
        assert big.shape == (100, 16) and not store._entries


class TestCounters:
    def test_traced_run_counts_hits_and_misses(self, tmp_path):
        metrics().reset()
        with obs.tracing():
            summary = run_campaign(GRID, tmp_path / "s.jsonl")
            counters = metrics().snapshot()["counters"]
        metrics().reset()
        assert counters[schema.COUNTER_TRAFFIC_CACHE_MISSES] == GRID_KEYS
        assert counters[schema.COUNTER_TRAFFIC_CACHE_HITS] == (
            GRID.n_scenarios - GRID_KEYS
        )
        assert summary["traffic_cache"] == {
            "hits": GRID.n_scenarios - GRID_KEYS, "misses": GRID_KEYS,
        }
