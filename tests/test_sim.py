"""Tests for the traffic simulation subsystem (:mod:`repro.sim`)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidNetworkError, ReproError
from repro.core.properties import is_banyan
from repro.io import dumps_report, loads_report
from repro.networks.baseline import baseline
from repro.networks.benes import benes
from repro.networks.catalog import CLASSICAL_NETWORKS, NETWORK_CATALOG
from repro.networks.omega import omega
from repro.permutations.permutation import Permutation
from repro.routing.bit_routing import port_tables, route
from repro.routing.paths import (
    enumerate_paths,
    reachable_outputs,
    unique_path,
)
from repro.routing.permutation_routing import (
    count_link_conflicts,
    is_routable,
    permutation_from_switch_settings,
    route_permutation,
)
from repro.routing.rearrangeable import benes_switch_settings
from repro.sim import (
    BatchScenario,
    BitReversalTraffic,
    CompiledNetwork,
    FaultSet,
    FaultStructure,
    HotspotTraffic,
    PermutationTraffic,
    TRAFFIC_PATTERNS,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    compile_cache_clear,
    compile_cache_info,
    compile_network,
    fault_connectivity,
    fault_masks,
    fault_structure,
    patel_profile,
    permutation_port_schedule,
    register_traffic,
    schedule_from_switch_settings,
    simulate,
    simulate_batch,
    terminal_availability,
    terminal_reachability,
)
from repro.sim.faults import masks_from_counts
from repro.sim.metrics import latency_summary
from repro.spec.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _passable_permutation(net, seed: int) -> Permutation:
    """A conflict-free permutation, generated from random switch settings."""
    rng = np.random.default_rng(seed)
    settings = [
        rng.integers(0, 2, net.size) for _ in range(net.n_stages)
    ]
    return permutation_from_switch_settings(net, settings)


#: sha256 of each built-in pattern's ``(40, 64)`` schedule at seed 7,
#: as ``int64`` bytes: the draws every stored campaign was run on.
_SCHEDULE_DIGESTS = {
    ("uniform", 0.5): "cdf40cfd9bb4c343644ef9aee5663cae96278720d7251c0ac98bb67accac0cfa",
    ("uniform", 1.0): "458a08a3222e51fd846ec2e8c3f3eb5834cc5b7c05b0a0192e62d0ef441c0f19",
    ("hotspot", 0.5): "6227c6d788c4c14f720ef10db7888b2819ba6993e2affc5383e3d7323d8fa007",
    ("hotspot", 1.0): "bcfa4d2ea8b942bb0d773c288a1166a2dd38595b995916ead669ba904b91b7ed",
    ("hotspot-multi", 0.5): "acd149516c631fe385136bdbebbac77fd1159f747624403b9ca6b888032cdcf8",
    ("hotspot-multi", 1.0): "a24594fb4dd26193c1e9288a6dc5e35333d4937c072f2b375b9460f95814a0c4",
    ("bitrev", 0.5): "e85b3b0580c6b3673d407aa6bf38bd15f6e3b0ea58c5be40dad9eb1374de264c",
    ("bitrev", 1.0): "de38bb506a041be4db1bdf8efb1ccf2b2fb02879f19d2b16cf2c3f91fa61c488",
    ("transpose", 0.5): "cd3cd8bf68ad8612dc606b0ac0e01e05f9662c0cc2d5fb17d5acff4e1ce0c8bc",
    ("transpose", 1.0): "f9543cb0075f6490dec8510d770048df7676de94d073c3f89181b24a69d14d7d",
    ("permutation", 0.5): "22c7035028bbc515ec94384570acda39ad1287779c70a1d8a03bcea6d016f7d9",
    ("permutation", 1.0): "a3b510b065bb71349aa763cef4d701b7a0df97fa8f3f624004a20a24eda4e6ef",
}

_SCHEDULE_PARAMS = {
    "hotspot-multi": {"fraction": 0.4, "hotspots": [3, 17, 60]},
    "permutation": {"perm": [(5 * x + 3) % 64 for x in range(64)]},
}


class TestTraffic:
    @pytest.mark.parametrize("case, rate", sorted(_SCHEDULE_DIGESTS))
    def test_schedule_bytes_are_pinned(self, case, rate):
        name = case.split("-")[0]
        params = _SCHEDULE_PARAMS.get(case, {})
        pattern = TrafficSpec.of(name, rate, **params).resolve()
        dests = pattern.destinations(np.random.default_rng(7), 64, 40)
        data = np.ascontiguousarray(dests, dtype=np.int64).tobytes()
        assert hashlib.sha256(data).hexdigest() == _SCHEDULE_DIGESTS[
            case, rate
        ]

    def test_thinning_leaves_a_plugin_schedule_unwritten(self):
        images = np.arange(16)[::-1].copy()

        class Fixed(TrafficPattern):
            def _dests(self, rng, n_inputs, cycles):
                return self.held

        pattern = Fixed(rate=0.5)
        pattern.held = np.broadcast_to(images, (20, 16)).copy()
        dests = pattern.destinations(np.random.default_rng(0), 16, 20)
        assert (pattern.held == images).all()
        assert ((dests == -1) | (dests == images)).all()
        assert (dests == -1).any() and (dests >= 0).any()

    def test_uniform_shape_and_range(self, rng):
        t = UniformTraffic(rate=1.0)
        dests = t.destinations(rng, 16, 50)
        assert dests.shape == (50, 16)
        assert dests.min() >= 0 and dests.max() < 16

    def test_rate_thins_the_schedule(self, rng):
        t = UniformTraffic(rate=0.5)
        dests = t.destinations(rng, 64, 400)
        frac = (dests >= 0).mean()
        assert 0.45 < frac < 0.55

    def test_same_seed_same_schedule(self):
        t = HotspotTraffic(rate=0.7, fraction=0.3)
        a = t.destinations(np.random.default_rng(5), 32, 100)
        b = t.destinations(np.random.default_rng(5), 32, 100)
        assert np.array_equal(a, b)

    def test_hotspot_concentrates_traffic(self, rng):
        t = HotspotTraffic(rate=1.0, fraction=0.5, hotspots=(3,))
        dests = t.destinations(rng, 32, 200)
        frac_hot = (dests == 3).mean()
        # 50% directed + 1/32 background
        assert 0.45 < frac_hot < 0.60

    def test_permutation_traffic_is_constant(self, rng):
        perm = Permutation.random(rng, 16)
        t = PermutationTraffic(perm, rate=1.0)
        dests = t.destinations(rng, 16, 10)
        assert np.array_equal(dests[0], perm.images)
        assert (dests == dests[0]).all()

    def test_bitrev_and_transpose_are_involutions(self, rng):
        for cls in (BitReversalTraffic, TransposeTraffic):
            dests = cls(rate=1.0).destinations(rng, 64, 1)[0]
            assert np.array_equal(np.sort(dests), np.arange(64))

    def test_registry_and_errors(self, rng):
        from repro.core.errors import UnknownTrafficError

        assert isinstance(
            TrafficSpec.of("uniform", 0.5).resolve(), UniformTraffic
        )
        with pytest.raises(UnknownTrafficError):
            TrafficSpec.of("nope")
        with pytest.raises(ValueError):
            UniformTraffic(rate=0.0)
        with pytest.raises(ValueError):
            UniformTraffic(rate=1.5)
        with pytest.raises(ValueError):
            HotspotTraffic(fraction=2.0)
        perm = Permutation.random(rng, 8)
        with pytest.raises(ValueError):
            PermutationTraffic(perm).destinations(rng, 16, 1)


class TestEngineBasics:
    def test_packet_conservation(self, omega4):
        rep = simulate(omega4, UniformTraffic(rate=0.9), cycles=150, seed=1)
        assert rep.offered == (
            rep.delivered + rep.dropped + rep.unroutable + rep.in_flight
        )

    def test_deterministic_runs(self, omega4):
        kw = dict(cycles=120, seed=7, policy="drop")
        a = simulate(omega4, HotspotTraffic(rate=0.8), **kw)
        b = simulate(omega4, HotspotTraffic(rate=0.8), **kw)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_unblocked_latency_is_stage_count(self, omega4):
        perm = _passable_permutation(omega4, 11)
        rep = simulate(
            omega4, PermutationTraffic(perm), cycles=40, seed=0, drain=True
        )
        assert rep.mean_latency == omega4.n_stages
        assert rep.p99_latency == omega4.n_stages

    def test_drain_empties_the_network(self, omega4):
        rep = simulate(
            omega4, UniformTraffic(rate=0.6), cycles=60, seed=3, drain=True
        )
        assert rep.in_flight == 0
        assert rep.drain_cycles > 0
        assert rep.offered == rep.delivered + rep.dropped + rep.unroutable

    def test_block_policy_never_drops(self, omega4):
        rep = simulate(
            omega4, UniformTraffic(rate=1.0), cycles=100, seed=5,
            policy="block",
        )
        assert rep.dropped == 0
        assert rep.blocked_moves > 0
        assert rep.offered == rep.delivered + rep.unroutable + rep.in_flight

    def test_adversarial_traffic_blocks_banyan(self, omega4):
        # bit-reversal at full load must conflict somewhere in an Omega net
        rep = simulate(omega4, BitReversalTraffic(), cycles=50, seed=0)
        assert rep.dropped > 0
        assert rep.throughput < 1.0

    def test_benes_multipath_adaptive_routing(self):
        net = benes(3)
        rep = simulate(
            net, UniformTraffic(rate=0.5), cycles=120, seed=9, drain=True
        )
        assert rep.delivered > 0
        assert rep.unroutable == 0

    def test_bad_arguments_raise(self, omega4):
        with pytest.raises(ReproError):
            simulate(omega4, UniformTraffic(), cycles=0)
        with pytest.raises(ReproError):
            simulate(omega4, UniformTraffic(), policy="teleport")
        with pytest.raises(ReproError):
            simulate(
                omega4,
                UniformTraffic(),
                cycles=5,
                port_schedule=np.zeros((2, 2), dtype=np.int8),
            )

    def test_malformed_plugin_schedules_raise(self):
        # Destinations are ints in [0, N) or -1 (idle).  Unchecked, a -2
        # would drop out of the offered count and a float would be
        # truncated into the int32 slab, both silently.
        class MinusTwo(TrafficPattern):
            def _dests(self, rng, n_inputs, cycles):
                dests = np.tile(np.arange(n_inputs), (cycles, 1))
                dests[:, 0] = -2
                return dests

        class Floats(TrafficPattern):
            def _dests(self, rng, n_inputs, cycles):
                return np.tile(np.arange(n_inputs) + 0.5, (cycles, 1))

        for cls in (MinusTwo, Floats):
            name = f"test-{cls.__name__.lower()}"
            register_traffic(name)(cls)
            try:
                spec = ScenarioSpec(
                    network=NetworkSpec.catalog("omega", n=3),
                    traffic=TrafficSpec.of(name),
                    sim=SimPolicy(cycles=10),
                )
                with pytest.raises(ReproError, match="must be integers"):
                    simulate(spec)
            finally:
                TRAFFIC_PATTERNS.unregister(name)

    def test_non_integer_port_schedules_raise(self):
        # In range but not integral: a cast to int8 would turn every
        # 0.7 into port 0, silently.
        net = omega(3)
        sched = np.full((net.n_stages, net.n_inputs), 0.7)
        with pytest.raises(ReproError, match="must be integers"):
            simulate(
                net, UniformTraffic(rate=0.5), cycles=10,
                port_schedule=sched,
            )
        with pytest.raises(ReproError, match="must be integers"):
            simulate_batch(
                net,
                [BatchScenario(UniformTraffic(rate=0.5), port_schedule=sched)],
                cycles=10,
            )
        # Integer and bool schedules stay accepted.
        for ok in (sched.astype(np.int64), sched.astype(bool)):
            simulate(
                net, UniformTraffic(rate=0.5), cycles=10, port_schedule=ok
            )

    def test_regression_contention_counters(self):
        """Crafted all-to-one contention, counters pinned per policy.

        Guards the contention bookkeeping in ``_move`` — in particular
        that editing the mover set can never alias into the aliveness
        mask (``movers = alive`` once silently mutated ``alive``)."""
        net = omega(4)
        crush = HotspotTraffic(rate=1.0, fraction=1.0, hotspots=(0,))
        rep = simulate(net, crush, cycles=40, seed=0, drain=True)
        assert rep.offered == rep.injected == 640
        assert rep.delivered == 40  # output 0 ejects once per cycle
        assert rep.dropped == 600
        assert rep.blocked_moves == 0
        assert rep.in_flight == 0
        assert rep.total_hops == 600
        rep = simulate(net, crush, cycles=40, seed=0, policy="block")
        assert rep.offered == 81
        assert rep.injected == 66
        assert rep.delivered == 36
        assert rep.dropped == 0
        assert rep.blocked_moves == 982
        assert rep.in_flight == 45
        assert rep.total_hops == 166

    def test_regression_seeded_hotspot_run(self):
        """Pinned numbers: any engine change that shifts behaviour shows."""
        rep = simulate(
            omega(5),
            HotspotTraffic(rate=0.8),
            cycles=200,
            seed=0,
            network_name="omega(5)",
        )
        assert rep.offered == rep.injected == 5113
        assert rep.delivered == 1979
        assert rep.dropped == 3043
        assert rep.in_flight == 91
        assert rep.total_hops == 14335
        assert rep.mean_latency == 5.0


class TestSchedules:
    def test_schedule_matches_unique_path_routing(self, omega4):
        perm = _passable_permutation(omega4, 2)
        sched = permutation_port_schedule(omega4, perm)
        assert sched.shape == (omega4.n_stages, omega4.n_inputs)
        rep = simulate(
            omega4,
            PermutationTraffic(perm),
            cycles=20,
            seed=0,
            port_schedule=sched,
            drain=True,
        )
        assert rep.dropped == 0
        assert rep.throughput == 1.0

    def test_switch_setting_schedule_realizes_perm(self):
        net = benes(3)
        perm = Permutation(np.random.default_rng(1).permutation(8))
        sched = schedule_from_switch_settings(
            net, benes_switch_settings(perm)
        )
        # last-stage port must equal the destination's low digit
        for s in range(8):
            assert sched[-1, s] == int(perm(s)) & 1

    def test_schedule_shape_validation(self):
        net = benes(2)
        with pytest.raises(ReproError):
            schedule_from_switch_settings(net, [np.zeros(2)])


class TestFaults:
    def test_empty_faultset_is_falsy_and_lossless(self, omega4):
        fs = FaultSet()
        assert not fs
        assert fault_connectivity(omega4, fs) == 1.0
        for a, b in zip(
            port_tables(omega4),
            fault_structure(omega4, fault_masks(omega4, [fs])).ptabs[0],
        ):
            assert np.array_equal(a, b)

    def test_dead_cell_cuts_connectivity(self, omega4):
        fs = FaultSet(dead_cells=frozenset({(2, 0)}))
        conn = fault_connectivity(omega4, fs)
        assert conn < 1.0
        reach = terminal_reachability(omega4, fs)
        assert reach.shape == (omega4.n_inputs, omega4.n_inputs)
        assert conn == pytest.approx(reach.mean())

    def test_identical_faults_across_equivalent_topologies(self):
        """The same structural fault set applies to same-shape networks."""
        rng = np.random.default_rng(13)
        fs = FaultSet.random(rng, 4, 8, n_dead_cells=2, n_dead_links=2)
        for build in (omega, baseline):
            net = build(4)
            rep = simulate(
                net, UniformTraffic(rate=0.8), cycles=80, seed=3, faults=fs
            )
            assert rep.unroutable > 0
            assert fault_connectivity(net, fs) < 1.0

    def test_unroutable_packets_are_counted_not_lost(self, omega4):
        fs = FaultSet(dead_cells=frozenset({(2, 0), (3, 1)}))
        rep = simulate(
            omega4, UniformTraffic(rate=0.9), cycles=100, seed=0,
            faults=fs, drain=True,
        )
        assert rep.unroutable > 0
        assert rep.offered == rep.delivered + rep.dropped + rep.unroutable

    def test_benes_routes_around_faults(self):
        """Multipath redundancy: a single interior dead cell leaves the
        Beneš network fully connected and the simulator finds the detour."""
        net = benes(3)
        fs = FaultSet(dead_cells=frozenset({(3, 0)}))
        assert fault_connectivity(net, fs) == 1.0
        rep = simulate(
            net, UniformTraffic(rate=0.4), cycles=100, seed=2, drain=True
        )
        assert rep.unroutable == 0

    def test_fault_validation_and_serialization(self, omega4):
        with pytest.raises(ReproError):
            FaultSet(dead_cells=frozenset({(9, 0)})).validate(omega4)
        with pytest.raises(ReproError):
            FaultSet(dead_links=frozenset({(1, 0, 5)}))
        # Faults serialize as a FaultSpec (counts and sample seed) in
        # the scenario wire dict, which rebuilds the same sample.
        faults = FaultSpec(cells=1, links=2, seed=5)
        doc = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=4),
            traffic=TrafficSpec.of("uniform"),
            faults=faults,
        ).to_spec()
        again = ScenarioSpec.from_spec(json.loads(json.dumps(doc))).faults
        assert again == faults
        fs = FaultSet.from_counts(
            4, 8, cells=again.cells, links=again.links, seed=again.seed
        )
        assert len(fs.dead_cells) == 1 and len(fs.dead_links) == 2

    def test_severed_half_of_double_link_forces_surviving_port(self):
        """One arc of a double link dying leaves a forced (not ambiguous)
        port: the table must say 0, never -2, or the engine could steer
        packets onto the dead arc."""
        from repro.networks.counterexamples import double_link_network

        net = double_link_network(4)
        conn = net.connections[0]
        doubles = np.flatnonzero(conn.f == conn.g)
        assert doubles.size > 0
        cell = int(doubles[0])
        fs = FaultSet(dead_links=frozenset({(1, cell, 1)}))
        table = fault_structure(net, fault_masks(net, [fs])).ptabs[0, 0]
        row = table[cell]
        assert not (row == -2).any()
        assert (row[row >= 0] == 0).all()

    def test_random_faults_spare_terminal_stages(self):
        fs = FaultSet.random(
            np.random.default_rng(1), 5, 16, n_dead_cells=20
        )
        stages = {s for s, _ in fs.dead_cells}
        assert stages <= {2, 3, 4}


def _stack_samples(net) -> list:
    """Five fault samples of ``net``: healthy, a dead source cell, a dead
    last-stage cell, dead links (one arc of a double link when the
    network has one) and a random mix over every stage."""
    n, size = net.n_stages, net.size
    gap, cell = 1, 2 % size
    for j, conn in enumerate(net.connections, start=1):
        doubles = np.flatnonzero(conn.f == conn.g)
        if doubles.size:
            gap, cell = j, int(doubles[0])
            break
    return [
        None,
        FaultSet(dead_cells=frozenset({(1, 1)})),
        FaultSet(dead_cells=frozenset({(n, size - 1)})),
        FaultSet(dead_links=frozenset({(gap, cell, 1), (n - 1, 0, 0)})),
        FaultSet.random(
            np.random.default_rng(n * size), n, size, n_dead_cells=2,
            n_dead_links=2, spare_terminal_stages=False,
        ),
    ]


def _oracle(net, faults):
    """Brute-force ``(cells, reach, ptabs)`` of one sample.

    Reachability is a forward walk over live arcs from every cell; a
    port-table entry is read off the live out-arcs whose child's walk
    reaches the destination: none -1, one its port, both -2.
    """
    n, size = net.n_stages, net.size
    faults = faults or FaultSet()
    alive = {
        (s, x) for s in range(1, n + 1) for x in range(size)
    } - faults.dead_cells

    def arcs(s, x):
        conn = net.connections[s - 1]
        for p, y in enumerate((int(conn.f[x]), int(conn.g[x]))):
            if (
                (s, x) in alive and (s + 1, y) in alive
                and (s, x, p) not in faults.dead_links
            ):
                yield p, y

    walk = {}
    for s in range(n, 0, -1):
        for x in range(size):
            if s == n:
                walk[s, x] = {x} if (s, x) in alive else set()
            else:
                walk[s, x] = set().union(
                    *(walk[s + 1, y] for _, y in arcs(s, x))
                )
    cells = np.array(
        [[(s, x) in alive for x in range(size)] for s in range(1, n + 1)]
    )
    reach = np.array(
        [
            [[w in walk[s, x] for w in range(size)] for x in range(size)]
            for s in range(1, n + 1)
        ]
    )
    rule = {(): -1, (0,): 0, (1,): 1, (0, 1): -2}
    ptabs = np.array(
        [
            [
                [
                    rule[tuple(p for p, y in arcs(s, x) if w in walk[s + 1, y])]
                    for w in range(size)
                ]
                for x in range(size)
            ]
            for s in range(1, n)
        ],
        dtype=np.int8,
    )
    return cells, reach, ptabs


def _derivation_cases():
    from repro.networks.catalog import NETWORK_CATALOG

    cases = [
        (name, n) for name in sorted(NETWORK_CATALOG.names())
        for n in (3, 4, 5)
    ]
    return cases + [("double_link_network", 4)]


class TestFaultStructure:
    """The stacked derivation against each sample alone and an oracle."""

    @pytest.mark.parametrize("name, n", _derivation_cases())
    def test_stack_rows_match_alone_and_brute_force(self, name, n):
        from repro.networks.counterexamples import double_link_network

        if name == "double_link_network":
            net = double_link_network(n)
        else:
            net = NetworkSpec.catalog(name, n=n).resolve()
        samples = _stack_samples(net)
        stack = fault_structure(net, fault_masks(net, samples))
        K, L, size = len(samples), net.n_stages - 1, net.size
        assert stack.cells.shape == (K, L + 1, size)
        assert stack.links.shape == (K, L, size, 2)
        assert stack.ptabs.shape == (K, L, size, size)
        assert stack.ptabs.dtype == np.int8
        comp = CompiledNetwork(net, fault_masks(net, samples))
        for k, faults in enumerate(samples):
            alone = fault_structure(net, fault_masks(net, [faults]))
            for field in FaultStructure._fields:
                assert np.array_equal(
                    getattr(stack, field)[k], getattr(alone, field)[0]
                ), (k, field)
            cells, reach, ptabs = _oracle(net, faults)
            assert np.array_equal(stack.cells[k], cells), k
            assert np.array_equal(stack.ptabs[k], ptabs), k
            # Terminal pairs: the oracle's first-stage walk, per link.
            idx = np.arange(net.n_inputs) >> 1
            assert np.array_equal(
                terminal_reachability(net, faults or FaultSet()),
                reach[0][np.ix_(idx, idx)],
            ), k
            src = cells[0][idx]
            assert np.array_equal(comp.src_alive[k], src), k
        assert not comp.src_alive[1].all()
        assert comp.has_amb == tuple((stack.ptabs == -2).any((0, 2, 3)))
        assert np.array_equal(comp.links, stack.links)
        if name == "double_link_network":
            # The severed half of a double link forces the other port.
            gap, cell, _ = min(samples[3].dead_links)
            row = stack.ptabs[3, gap - 1, cell]
            assert (row == 0).any() and not (row == -2).any()
            assert (stack.ptabs[0, gap - 1, cell] == -2).any()

    def test_validates_every_sample(self, omega4):
        bad = FaultSet(dead_cells=frozenset({(9, 0)}))
        with pytest.raises(ReproError):
            fault_structure(omega4, fault_masks(omega4, [None, bad]))


def _nested_counts(net) -> list:
    """Nested ``(cells, links, seed)`` counts of ``net``'s shape: two
    fault seeds, each walking cells and links up from zero-fault rows
    to the whole interior cell pool."""
    cell_pool = (net.n_stages - 2) * net.size
    link_pool = 2 * (net.n_stages - 1) * net.size
    steps = sorted({0, 1, 2, cell_pool // 2, cell_pool})
    return [
        (cells, links, seed)
        for seed in (0, 5)
        for cells in steps
        for links in (0, 3, link_pool // 4)
    ]


class TestStackedAvailability:
    """Shared kill-order draws, stacked masks and the counts path
    (bottleneck kill ranks), each exactly equal to the oracle."""

    @pytest.mark.parametrize("name, n", _derivation_cases())
    def test_stack_matches_per_draw_and_brute_force(self, name, n):
        from repro.networks.counterexamples import double_link_network

        if name == "double_link_network":
            net = double_link_network(n)
        else:
            net = NetworkSpec.catalog(name, n=n).resolve()
        counts = _nested_counts(net)
        masks = masks_from_counts(net.n_stages, net.size, counts)
        samples = [
            FaultSet.from_counts(
                net.n_stages, net.size, cells=cells, links=links, seed=seed
            )
            for cells, links, seed in counts
        ]
        cells, links = masks.alive()
        for k, faults in enumerate(samples):
            alone_cells, alone_links = fault_masks(net, [faults]).alive()
            assert np.array_equal(cells[k], alone_cells[0]), k
            assert np.array_equal(links[k], alone_links[0]), k
        assert samples.count(None) == 2  # one zero-fault row per seed
        stacked = terminal_availability(net, fault_masks(net, samples))
        assert stacked.shape == (len(samples),)
        by_counts = terminal_availability(net, masks)
        assert by_counts.shape == (len(samples),)
        idx = np.arange(net.n_inputs) >> 1
        for k, faults in enumerate(samples):
            _, reach, _ = _oracle(net, faults)
            pairs = int(reach[0][np.ix_(idx, idx)].sum())
            oracle = pairs / net.n_inputs**2
            assert stacked[k] == fault_connectivity(net, faults) == oracle, k
            assert by_counts[k] == stacked[k], k
        # Each row depends on its sample alone, whatever shares its stack.
        reverse = masks._replace(
            order=masks.order[::-1], kills=masks.kills[::-1]
        )
        assert np.array_equal(
            terminal_availability(net, reverse), by_counts[::-1]
        )
        backwards = masks_from_counts(net.n_stages, net.size, counts[::-1])
        assert np.array_equal(
            terminal_availability(net, backwards), by_counts[::-1]
        )

    def test_shared_draw_checks_every_count(self):
        with pytest.raises(ReproError, match="must be >= 0"):
            masks_from_counts(5, 16, [(1, 0, 0), (0, -1, 0)])
        with pytest.raises(ReproError, match="cannot kill 49 cells"):
            masks_from_counts(5, 16, [(48, 0, 3), (49, 0, 3)])
        with pytest.raises(ReproError, match="cannot sever 129 links"):
            masks_from_counts(5, 16, [(0, 129, 3)])

    def test_empty_sample_list_is_loud(self, omega4):
        empty = fault_masks(omega4, [])
        with pytest.raises(ReproError, match="at least one fault sample"):
            fault_structure(omega4, empty)
        with pytest.raises(ReproError, match="at least one fault sample"):
            terminal_availability(omega4, empty)
        with pytest.raises(ReproError, match="at least one fault sample"):
            CompiledNetwork(omega4, empty)


class TestReportSerialization:
    def test_json_round_trip(self, omega4):
        rep = simulate(omega4, UniformTraffic(rate=0.5), cycles=30, seed=4)
        again = loads_report(dumps_report(rep))
        assert again == rep

    def test_summary_mentions_the_key_figures(self, omega4):
        rep = simulate(omega4, UniformTraffic(rate=0.5), cycles=30, seed=4)
        text = rep.summary()
        for token in (
            "throughput", "blocking probability", "latency", "utilization"
        ):
            assert token in text

    def test_rejects_malformed_documents(self):
        with pytest.raises(Exception):
            loads_report("{}")
        with pytest.raises(Exception):
            loads_report('{"format": "repro-simreport", "version": 99}')


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(3, 5))
def test_property_passable_permutation_full_throughput_banyan(seed, n):
    """A conflict-free permutation at rate 1.0 is lossless on a Banyan
    network: 100% throughput, zero drops, latency exactly n."""
    net = omega(n)
    perm = _passable_permutation(net, seed)
    rep = simulate(
        net, PermutationTraffic(perm, rate=1.0), cycles=25, seed=seed,
        drain=True,
    )
    assert rep.dropped == 0
    assert rep.unroutable == 0
    assert rep.delivered == rep.offered == 25 * net.n_inputs
    assert rep.throughput == 1.0
    assert rep.mean_latency == net.n_stages


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(2, 4))
def test_property_rearrangeable_full_throughput_any_permutation(seed, n):
    """Rearrangeability, dynamically: *any* permutation at rate 1.0 runs
    at 100% throughput with zero drops on the Beneš network when the
    looping algorithm's switch settings drive the port schedule."""
    rng = np.random.default_rng(seed)
    perm = Permutation.random(rng, 2**n)
    net = benes(n)
    sched = schedule_from_switch_settings(net, benes_switch_settings(perm))
    rep = simulate(
        net, PermutationTraffic(perm, rate=1.0), cycles=20, seed=seed,
        port_schedule=sched, drain=True,
    )
    assert rep.dropped == 0
    assert rep.unroutable == 0
    assert rep.delivered == rep.offered == 20 * net.n_inputs
    assert rep.throughput == 1.0
    assert rep.mean_latency == net.n_stages


class TestCompiledNetwork:
    def test_cache_returns_identical_object(self, omega4):
        compile_cache_clear()
        a = compile_network(omega4)
        b = compile_network(omega4)
        assert a is b
        info = compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_faults_key_separately(self, omega4):
        fs = FaultSet(dead_cells=frozenset({(2, 0)}))
        healthy = compile_network(omega4)
        faulted = compile_network(omega4, fs)
        assert healthy is not faulted
        assert compile_network(omega4, fs) is faulted

    def test_equal_networks_share_a_compilation(self):
        # Value-keyed: two separately built equal networks hit one entry.
        assert compile_network(omega(3)) is compile_network(omega(3))

    def test_tables_match_the_faults_module(self, omega4):
        fs = FaultSet(
            dead_cells=frozenset({(2, 1)}),
            dead_links=frozenset({(1, 0, 1)}),
        )
        comp = compile_network(omega4, fs)
        derived = fault_structure(omega4, fault_masks(omega4, [fs]))
        for name in ("ptabs", "links"):
            assert np.array_equal(getattr(comp, name), getattr(derived, name))
        assert np.array_equal(comp.cells_alive, derived.cells)
        assert comp.ptabs.dtype == np.int8
        assert comp.child.dtype == np.int32
        assert not comp.links[0, 0].all()  # gap 1 carries the severed link

    def test_arc_target_is_linear_in_slot(self, omega4):
        comp = compile_network(omega4)
        assert np.array_equal(
            comp.arc_target, 2 * comp.child + comp.slots
        )

    def test_compiled_arrays_are_frozen(self, omega4):
        comp = compile_network(omega4)
        with pytest.raises(ValueError):
            comp.ptabs[0, 0, 0] = 0

    def test_simulate_reuses_the_compilation(self, omega4):
        compile_cache_clear()
        simulate(omega4, UniformTraffic(rate=0.5), cycles=10, seed=0)
        simulate(omega4, UniformTraffic(rate=0.5), cycles=10, seed=1)
        info = compile_cache_info()
        assert info["misses"] == 1
        assert info["hits"] >= 1


class TestVectorizedSchedules:
    """The vectorized schedule builders against scalar references."""

    @staticmethod
    def _reference_schedule_from_settings(net, settings):
        """The original per-source pure-Python implementation."""
        size = net.size
        sched = np.full((net.n_stages, 2 * size), -1, dtype=np.int8)
        signals = [[2 * x, 2 * x + 1] for x in range(size)]
        for stage in range(1, net.n_stages + 1):
            setting = np.asarray(settings[stage - 1], dtype=np.int64)
            for x in range(size):
                for slot in (0, 1):
                    sig = signals[x][slot]
                    sched[stage - 1, sig] = slot ^ int(setting[x])
            if stage == net.n_stages:
                break
            conn = net.connections[stage - 1]
            in_arcs = [[] for _ in range(size)]
            for x in range(size):
                in_arcs[int(conn.f[x])].append((x, 0))
                in_arcs[int(conn.g[x])].append((x, 1))
            nxt = [[-1, -1] for _ in range(size)]
            for y in range(size):
                for slot, (x, tag) in enumerate(sorted(in_arcs[y])):
                    src_slot = tag ^ int(setting[x])
                    nxt[y][slot] = signals[x][src_slot]
            signals = nxt
        return sched

    @pytest.mark.parametrize("build,n", [(omega, 4), (benes, 3)])
    def test_switch_setting_schedule_matches_reference(self, build, n):
        net = build(n)
        rng = np.random.default_rng(0xC0FFEE + n)
        for _ in range(5):
            settings = [
                rng.integers(0, 2, net.size) for _ in range(net.n_stages)
            ]
            got = schedule_from_switch_settings(net, settings)
            want = self._reference_schedule_from_settings(net, settings)
            assert np.array_equal(got, want)

    def test_switch_setting_shape_validation(self):
        net = benes(2)
        with pytest.raises(ReproError, match="shape"):
            schedule_from_switch_settings(
                net, [np.zeros(5)] * net.n_stages
            )

    def test_permutation_schedule_matches_route(self, omega4):
        from repro.routing.bit_routing import route

        perm = _passable_permutation(omega4, 5)
        sched = permutation_port_schedule(omega4, perm)
        for s in range(omega4.n_inputs):
            r = route(omega4, s, int(perm(s)))
            assert tuple(sched[:, s]) == r.ports

    def test_permutation_schedule_rejects_multipath(self):
        perm = Permutation(np.arange(8))
        with pytest.raises(ReproError, match="not Banyan"):
            permutation_port_schedule(benes(3), perm)


def _catalog_nets():
    """Every catalog topology at each order with 3-5 stages."""
    nets = []
    for name in sorted(NETWORK_CATALOG.names()):
        for order in range(2, 6):
            net = NetworkSpec.catalog(name, n=order).resolve()
            if 3 <= net.n_stages <= 5:
                nets.append(pytest.param(net, id=f"{name}({order})"))
    return nets


CATALOG_NETS = _catalog_nets()
BANYAN_NETS = [p for p in CATALOG_NETS if is_banyan(p.values[0])]


def _permutation_from_schedule(net, sched):
    """Follow each input's scheduled ports through the child cells."""
    images = []
    for s in range(net.n_inputs):
        cell = s >> 1
        for j, conn in enumerate(net.connections):
            cell = conn.children(cell)[sched[j, s]]
        images.append(2 * cell + int(sched[-1, s]))
    return Permutation(images)


class TestRoutingAgreement:
    """Routing's port tables, unique-path walk and switch-setting trace
    against independent references on every catalog topology at 3-5
    stages, and against the simulator's views of them."""

    @pytest.mark.parametrize("net", CATALOG_NETS)
    def test_port_tables(self, net):
        tables = port_tables(net)
        healthy = fault_structure(net, fault_masks(net, [None])).ptabs[0]
        assert len(tables) == len(healthy) == net.n_stages - 1
        reach = reachable_outputs(net)
        for j, conn in enumerate(net.connections):
            via_f, via_g = reach[j + 1][conn.f], reach[j + 1][conn.g]
            want = np.select([via_f & via_g, via_f, via_g], [-2, 0, 1], -1)
            assert np.array_equal(tables[j], want), j
            assert np.array_equal(healthy[j], want), j

    @pytest.mark.parametrize("net", CATALOG_NETS)
    def test_permutation_walks_agree(self, net):
        rng = np.random.default_rng(net.n_stages)
        perm = Permutation.random(rng, net.n_inputs)
        if not is_banyan(net):
            errors = []
            for walk in (route_permutation, permutation_port_schedule):
                with pytest.raises(ReproError, match="not Banyan") as info:
                    walk(net, perm)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
            return
        routes = route_permutation(net, perm)
        sched = permutation_port_schedule(net, perm)
        assert sched.shape == (net.n_stages, net.n_inputs)
        assert sched.dtype == np.int8
        for s, r in enumerate(routes):
            assert (r.input, r.output) == (s, perm(s))
            assert r == route(net, s, int(perm(s)))
            assert r.ports == tuple(sched[:, s])

    @pytest.mark.parametrize("net", BANYAN_NETS)
    def test_unique_path_is_route_cells(self, net):
        reach = reachable_outputs(net)
        for u in range(net.size):
            for w in range(net.size):
                [path] = enumerate_paths(net, u, w)
                assert unique_path(net, u, w, reach) == path
                assert route(net, 2 * u, 2 * w, reach).cells == path

    @pytest.mark.parametrize("net", CATALOG_NETS)
    def test_switch_settings_match_reference(self, net):
        reference = TestVectorizedSchedules._reference_schedule_from_settings
        rng = np.random.default_rng(0x5E77 + net.n_stages)
        for _ in range(3):
            settings = [
                rng.integers(0, 2, net.size) for _ in range(net.n_stages)
            ]
            want = reference(net, settings)
            got = schedule_from_switch_settings(net, settings)
            assert np.array_equal(got, want)
            assert permutation_from_switch_settings(
                net, settings
            ) == _permutation_from_schedule(net, want)

    @pytest.mark.parametrize("net", BANYAN_NETS)
    def test_is_routable_means_no_link_conflicts(self, net):
        # Uniform permutations mostly block; those a random switch
        # configuration realizes always pass.
        rng = np.random.default_rng(0xB10C + net.n_stages)
        perms = [Permutation.random(rng, net.n_inputs) for _ in range(12)]
        perms += [
            permutation_from_switch_settings(
                net, [rng.integers(0, 2, net.size) for _ in range(net.n_stages)]
            )
            for _ in range(4)
        ]
        seen = set()
        for perm in perms:
            routes = route_permutation(net, perm)
            passes = is_routable(net, perm)
            assert passes == (count_link_conflicts(routes) == 0), perm
            seen.add(passes)
        assert seen == {False, True}


class TestSwitchSettingValidation:
    """Settings are checked once, in the shared trace: one setting per
    stage, each of shape ``(M,)`` with entries 0 or 1."""

    @pytest.mark.parametrize("settings, match", [
        ([np.zeros(7)] * 3, "shape"),       # too long
        ([np.zeros(3)] * 3, "shape"),       # too short
        ([np.full(4, 2)] * 3, "0 or 1"),
        ([np.zeros(4), np.full(4, -1), np.zeros(4)], "0 or 1"),
        ([np.zeros(4)] * 2, "one setting array per stage"),
    ])
    def test_bad_settings_raise(self, settings, match):
        net = omega(3)
        for trace in (
            permutation_from_switch_settings, schedule_from_switch_settings
        ):
            with pytest.raises(InvalidNetworkError, match=match):
                trace(net, settings)

    def test_permutation_size_checks_agree(self, omega4):
        perm = Permutation.identity(8)
        for walk in (route_permutation, permutation_port_schedule):
            with pytest.raises(InvalidNetworkError, match="acts on 8 links"):
                walk(omega4, perm)


class TestSimulateBatch:
    def test_rejects_bad_arguments(self, omega4):
        with pytest.raises(ReproError, match="at least one"):
            simulate_batch(omega4, [])
        with pytest.raises(ReproError, match="cycles"):
            simulate_batch(omega4, [UniformTraffic()], cycles=0)
        with pytest.raises(ReproError, match="policy"):
            simulate_batch(
                omega4, [UniformTraffic()], cycles=5, policy="teleport"
            )
        with pytest.raises(ReproError, match="TrafficPattern"):
            simulate_batch(omega4, ["uniform"], cycles=5)

    def test_rejects_partial_port_schedules(self, omega4):
        perm = _passable_permutation(omega4, 3)
        sched = permutation_port_schedule(omega4, perm)
        scns = [
            BatchScenario(PermutationTraffic(perm), port_schedule=sched),
            BatchScenario(UniformTraffic()),
        ]
        with pytest.raises(ReproError, match="every batch scenario"):
            simulate_batch(omega4, scns, cycles=5)

    def test_bare_patterns_are_wrapped(self, omega4):
        (rep,) = simulate_batch(
            omega4, [UniformTraffic(rate=0.5)], cycles=20
        )
        assert rep == simulate(omega4, UniformTraffic(rate=0.5), cycles=20)

    def test_mixed_traffic_batch_matches_sequential(self, omega4):
        scns = [
            BatchScenario(UniformTraffic(rate=0.9), seed=1),
            BatchScenario(HotspotTraffic(rate=0.8), seed=2),
            BatchScenario(BitReversalTraffic(), seed=3),
            BatchScenario(TransposeTraffic(rate=0.7), seed=4),
        ]
        for rep, s in zip(simulate_batch(omega4, scns, cycles=60), scns):
            assert rep == simulate(omega4, s.traffic, cycles=60, seed=s.seed)

    def test_multipath_adaptive_batch_matches_sequential(self):
        net = benes(3)
        scns = [
            BatchScenario(UniformTraffic(rate=0.6), seed=i)
            for i in range(4)
        ]
        for rep, s in zip(
            simulate_batch(net, scns, cycles=50, drain=True), scns
        ):
            assert rep == simulate(
                net, s.traffic, cycles=50, seed=s.seed, drain=True
            )

    def test_port_schedule_batch_is_lossless_and_identical(self):
        net = benes(3)
        rng = np.random.default_rng(17)
        scns = []
        for _ in range(3):
            perm = Permutation(rng.permutation(8))
            scns.append(
                BatchScenario(
                    PermutationTraffic(perm),
                    seed=int(rng.integers(100)),
                    port_schedule=schedule_from_switch_settings(
                        net, benes_switch_settings(perm)
                    ),
                )
            )
        reports = simulate_batch(net, scns, cycles=20, drain=True)
        for rep, s in zip(reports, scns):
            assert rep.dropped == 0 and rep.throughput == 1.0
            assert rep == simulate(
                net, s.traffic, cycles=20, seed=s.seed,
                port_schedule=s.port_schedule, drain=True,
            )

    def test_network_names_per_scenario(self, omega4):
        scns = [
            BatchScenario(UniformTraffic(), seed=0, network_name="alpha"),
            BatchScenario(UniformTraffic(), seed=1),
        ]
        a, b = simulate_batch(
            omega4, scns, cycles=5, network_name="fallback"
        )
        assert a.network == "alpha"
        assert b.network == "fallback"

    def test_per_scenario_drain_cycle_counts(self, omega4):
        # Scenarios empty at different times; each report must carry its
        # own sequential drain count, not the batch's last cycle.
        # A backed-up hotspot crush drains one packet per cycle under
        # "block"; the light uniform scenarios empty almost immediately.
        scns = [
            BatchScenario(UniformTraffic(rate=0.2), seed=0),
            BatchScenario(
                HotspotTraffic(rate=1.0, fraction=1.0, hotspots=(0,)),
                seed=1,
            ),
            BatchScenario(UniformTraffic(rate=0.5), seed=2),
        ]
        reports = simulate_batch(
            omega4, scns, cycles=40, policy="block", drain=True
        )
        for rep, s in zip(reports, scns):
            assert rep.in_flight == 0
            assert rep == simulate(
                omega4, s.traffic, cycles=40, seed=s.seed,
                policy="block", drain=True,
            )
        assert len({r.drain_cycles for r in reports}) > 1


@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_property_batch_reports_equal_sequential(seed):
    """Scenarios of a B=3 slab do not interact: each report is
    field-for-field its own B=1 slab (``simulate``) across policies,
    faults and drain."""
    rng = np.random.default_rng(seed)
    net = omega(4)
    policy = ("drop", "block")[int(rng.integers(0, 2))]
    drain = bool(rng.integers(0, 2)) and policy == "drop"
    faults = None
    if rng.integers(0, 2):
        faults = FaultSet.random(
            rng, 4, 8,
            n_dead_cells=int(rng.integers(0, 3)),
            n_dead_links=int(rng.integers(0, 3)),
        )
    scns = [
        BatchScenario(UniformTraffic(rate=0.9), seed=int(rng.integers(99))),
        BatchScenario(
            HotspotTraffic(rate=0.7, fraction=0.5),
            seed=int(rng.integers(99)),
        ),
        BatchScenario(BitReversalTraffic(), seed=int(rng.integers(99))),
    ]
    kw = dict(cycles=50, policy=policy, faults=faults, drain=drain)
    for rep, s in zip(simulate_batch(net, scns, **kw), scns):
        want = simulate(net, s.traffic, seed=s.seed, **kw)
        assert rep == want
        assert rep.to_dict() == want.to_dict()


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_property_conservation_under_any_policy_and_faults(seed):
    """Offered packets are always fully accounted for."""
    rng = np.random.default_rng(seed)
    net = omega(4)
    fs = FaultSet.random(rng, 4, 8, n_dead_cells=int(rng.integers(0, 3)))
    policy = ("drop", "block")[int(rng.integers(0, 2))]
    rep = simulate(
        net, UniformTraffic(rate=0.8), cycles=60, seed=seed,
        policy=policy, faults=fs,
    )
    assert rep.offered == (
        rep.delivered + rep.dropped + rep.unroutable + rep.in_flight
    )
    if policy == "block":
        assert rep.dropped == 0


class TestLatencySummary:
    """``latency_summary`` of ``np.bincount(lat)`` is ``np.mean(lat)`` and
    ``np.percentile(lat, 99)`` bit for bit.

    The kernels hand latencies over as counts per age (see
    :class:`repro.sim.kernels.results.BatchRun`), so each array here is
    reduced to its counts first; lengths cover both sides of every
    interpolation case (``v`` past the last index, ``t`` below and
    above one half).
    """

    @pytest.mark.parametrize("seed", range(4))
    def test_p99_matches_numpy_percentile(self, seed):
        rng = np.random.default_rng(seed)
        lengths = [*range(1, 260), 1000, 1601, 20000, 65537]
        for length in lengths:
            high = int(rng.choice([2, 5, 40, 1000, 1 << 20]))
            lat = rng.integers(0, high, size=length).astype(np.int32)
            mean, p99 = latency_summary(np.bincount(lat))
            assert p99 == float(np.percentile(lat, 99)), length
            assert mean == float(np.mean(lat))

    def test_empty_and_single(self):
        assert latency_summary(np.bincount(np.empty(0, np.int32))) == (0.0, 0.0)
        # A row of a slab's table in which this scenario delivered nothing.
        assert latency_summary(np.zeros(9, np.int64)) == (0.0, 0.0)
        assert latency_summary(np.bincount([7])) == (7.0, 7.0)


class TestPatelRecursion:
    """Closed-form oracle: Patel's delta-network load recursion.

    A baseline-equivalent network is a banyan network with independent
    connections, so the two inputs of each switch see independent loads
    and, under ``drop`` with fault-free uniform traffic, stage ``j``'s
    utilization is Patel's ``p_j``.  The oracle shares no code with any
    kernel.  Multipath catalog entries (extra_stage_omega, omega_3dp,
    benes) are out of scope: a packet there has a choice of paths, so
    the recursion does not describe them.
    """

    def test_recursion_values(self):
        assert patel_profile(1.0, 2) == (1.0, 0.75, 1.0 - 0.625**2)
        assert patel_profile(0.0, 3) == (0.0, 0.0, 0.0, 0.0)
        loads = patel_profile(0.8, 8)
        assert len(loads) == 9
        assert all(a > b for a, b in zip(loads, loads[1:]))

    @pytest.mark.parametrize("name", CLASSICAL_NETWORKS.names())
    def test_classical_stage_utilization_matches(self, name):
        # Measured max error over the six networks: 0.0025.
        net = CLASSICAL_NETWORKS[name](6)
        rates = (0.5, 1.0)
        reports = simulate_batch(
            net,
            [
                BatchScenario(UniformTraffic(rate=r), seed=i)
                for i, r in enumerate(rates)
            ],
            cycles=3000,
            policy="drop",
        )
        for rate, rep in zip(rates, reports):
            want = patel_profile(rate, 6)[:6]
            err = np.abs(np.subtract(rep.stage_utilization, want))
            assert err.max() <= 0.005, (rate, err)
