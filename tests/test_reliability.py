"""Tests for the reliability tier.

Four layers of guarantees:

* **Topology** — the fault-tolerant constructions have the advertised
  shapes, register in the simulation catalog, agree with the radix
  pipeline's binary form where applicable, and actually tolerate the
  faults their docstrings claim (exhaustively, over every single
  interior cell death).
* **Fault sampling** — ``FaultSet.from_counts`` draws are exact
  permutation prefixes of ``FaultSet.kill_order``: nested across
  counts, independent between the cell and link axes, duplicate-free,
  and loud on impossible or negative counts.
* **Sweeps and aggregates** — ``ReliabilitySweepSpec`` round-trips
  through its wire form, expands to a nested-fault campaign, and the
  reliability reduction produces monotone non-increasing availability
  curves on which the augmented networks strictly beat plain omega —
  byte-identically across the inline, pooled and resumed execution
  paths.
* **Unroutable semantics** — a packet is dropped as unroutable *iff*
  ``terminal_reachability`` says its pair has no live path, property
  tested per fault-tolerant variant against both kernel backends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    ReliabilitySweepSpec,
    dumps_reliability,
    dumps_sweep,
    load_records,
    loads_sweep,
    reliability_from_store,
    reliability_report,
    reliability_summary_table,
    reliability_table,
    run_campaign,
)
from repro.core.errors import ReproError
from repro.networks import (
    NETWORK_CATALOG,
    benes_variant,
    build_network,
    extra_stage_cube,
    extra_stage_omega,
    omega_3dp,
)
from repro.networks.omega import omega
from repro.permutations.permutation import Permutation
from repro.radix import omega_k
from repro.sim import (
    FaultSet,
    PermutationTraffic,
    compile_network,
    numba_available,
    simulate,
)
from repro.sim.faults import (
    fault_connectivity,
    fault_masks,
    fault_structure,
    masks_from_counts,
    terminal_reachability,
)
from repro.sim.kernels import numba_backend, numpy_backend

VARIANTS = {
    "extra_stage_omega": extra_stage_omega,
    "extra_stage_cube": extra_stage_cube,
    "omega_3dp": omega_3dp,
    "benes_variant": benes_variant,
}

#: Variants whose every single interior cell death leaves all pairs
#: connected.  ``extra_stage_cube`` is excluded on purpose: its two
#: paths are disjoint only in the duplicated stage (stage 2) and merge
#: afterwards, so deaths in stages >= 3 still cut pairs.
FULLY_1FT = ("extra_stage_omega", "omega_3dp", "benes_variant")


def _same_connections(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(
        np.array_equal(c1.f, c2.f) and np.array_equal(c1.g, c2.g)
        for c1, c2 in zip(a, b)
    )


def _interior_cells(net):
    return [
        (s, c) for s in range(2, net.n_stages) for c in range(net.size)
    ]


def _dead(masks, k) -> FaultSet:
    """Row ``k`` of a mask stack read back as the fault set it kills."""
    cells, links = masks.alive()
    cells = np.argwhere(~cells[k]) + [1, 0]
    links = np.argwhere(~links[k]) + [1, 0, 0]
    return FaultSet(
        frozenset(map(tuple, cells.tolist())),
        frozenset(map(tuple, links.tolist())),
    )


def _reference_kill_order(n_stages, size, seed, spare=True):
    """The kill order by definition, the one every stored campaign's
    samples are prefixes of: each candidate pool listed stage by stage,
    cell by cell (port by port), then permuted whole by one generator,
    cells first."""
    rng = np.random.default_rng(seed)
    stages = range(2, n_stages) if spare else range(1, n_stages + 1)
    cells = [(s, c) for s in stages for c in range(size)]
    links = [
        (g, c, p)
        for g in range(1, n_stages)
        for c in range(size)
        for p in (0, 1)
    ]
    return (
        [cells[i] for i in rng.permutation(len(cells))],
        [links[i] for i in rng.permutation(len(links))],
    )


# ---------------------------------------------------------------------------
# topology


class TestFaultTolerantTopologies:
    @pytest.mark.parametrize(
        "name,stages_of",
        [
            ("extra_stage_omega", lambda n: n + 1),
            ("extra_stage_cube", lambda n: n + 1),
            ("omega_3dp", lambda n: n + 2),
            ("benes_variant", lambda n: 2 * n - 1),
        ],
    )
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shapes(self, name, stages_of, n):
        net = VARIANTS[name](n)
        assert net.n_stages == stages_of(n)
        assert net.size == 2 ** (n - 1)
        assert net.n_inputs == 2**n

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_order_floor(self, name):
        with pytest.raises(ValueError, match="n >= 2"):
            VARIANTS[name](1)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_catalog_builds_the_same_network(self, name):
        assert name in NETWORK_CATALOG.names()
        built = build_network(name, 3)
        assert _same_connections(built.connections, VARIANTS[name](3).connections)

    def test_extra_stage_omega_is_omega_plus_one_shuffle(self):
        eso = extra_stage_omega(4)
        base = omega(4)
        assert _same_connections(eso.connections[:-1], base.connections)
        assert np.array_equal(eso.connections[-1].f, eso.connections[0].f)

    def test_radix_binary_compatibility(self):
        # The radix pipeline's binarised omega is the same MI-digraph
        # the binary builders produce, so the extra-stage variants stay
        # consistent with RadixMIDigraph-derived networks.
        bin_omega = omega_k(4, 2).to_binary()
        assert _same_connections(omega(4).connections, bin_omega.connections)
        eso = extra_stage_omega(4)
        assert _same_connections(
            eso.connections[:-1], bin_omega.connections
        )

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variants_are_multipath(self, name):
        # Redundant paths surface as adaptive (-2) entries in the
        # fault-degraded routing tables; plain omega has none.
        net = VARIANTS[name](4)
        tables = fault_structure(net, fault_masks(net, [FaultSet()])).ptabs[0]
        assert any((t == -2).any() for t in tables)
        base = omega(4)
        base_tables = fault_structure(
            base, fault_masks(base, [FaultSet()])
        ).ptabs[0]
        assert not any((t == -2).any() for t in base_tables)

    @pytest.mark.parametrize("name", FULLY_1FT)
    @pytest.mark.parametrize("n", [3, 4])
    def test_single_interior_fault_full_availability(self, name, n):
        net = VARIANTS[name](n)
        for cell in _interior_cells(net):
            faults = FaultSet(dead_cells=frozenset({cell}))
            assert fault_connectivity(net, faults) == 1.0, cell

    @pytest.mark.parametrize("n", [3, 4])
    def test_omega_single_fault_disconnects(self, n):
        net = omega(n)
        for cell in _interior_cells(net):
            assert fault_connectivity(net, FaultSet(dead_cells=frozenset({cell}))) < 1.0

    def test_extra_stage_cube_spare_stage(self):
        # The duplicated first gap makes stage 2 fully redundant; the
        # merged tail stages degrade exactly like plain omega's cells.
        net = extra_stage_cube(4)
        for c in range(net.size):
            spare = FaultSet(dead_cells=frozenset({(2, c)}))
            assert fault_connectivity(net, spare) == 1.0
        deep = FaultSet(dead_cells=frozenset({(3, 0)}))
        assert fault_connectivity(net, deep) == pytest.approx(0.875)


# ---------------------------------------------------------------------------
# fault sampling (satellite S1)


class TestFaultSampling:
    def test_negative_counts_rejected(self):
        with pytest.raises(ReproError, match="must be >= 0"):
            FaultSet.from_counts(5, 8, cells=-1, seed=0)
        with pytest.raises(ReproError, match="must be >= 0"):
            FaultSet.from_counts(5, 8, links=-2, seed=0)

    def test_oversize_cell_count_rejected(self):
        # omega(4): interior pool is (5 - 2 - 1) stages? no — stages
        # 2..n_stages-1 inclusive exclusive arithmetic lives in the
        # sampler; the loud message is the contract under test.
        rng = np.random.default_rng(0)
        with pytest.raises(ReproError, match="cannot kill"):
            FaultSet.random(rng, 4, 8, n_dead_cells=1000)

    def test_oversize_link_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ReproError, match="cannot sever"):
            FaultSet.random(rng, 4, 8, n_dead_links=1000)

    def test_empty_interior_pool_is_loud(self):
        # A 2-stage network has no interior stage at all once the
        # terminal stages are spared.
        with pytest.raises(ReproError, match="cannot kill 1 cells"):
            FaultSet.from_counts(2, 2, cells=1, seed=0)

    def test_spare_terminal_false_widens_pool(self):
        rng = np.random.default_rng(3)
        fs = FaultSet.random(
            rng, 2, 2, n_dead_cells=4, spare_terminal_stages=False
        )
        assert fs.dead_cells == frozenset({(1, 0), (1, 1), (2, 0), (2, 1)})

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_from_counts_is_a_kill_order_prefix(self, seed):
        cells_order, links_order = FaultSet.kill_order(5, 8, seed=seed)
        max_cells = len(cells_order)
        for k in range(0, max_cells + 1, 3):
            fs = FaultSet.from_counts(5, 8, cells=k, links=k % 5, seed=seed)
            if fs is None:
                assert k == 0 and k % 5 == 0
                continue
            assert fs.dead_cells == frozenset(cells_order[:k])
            assert fs.dead_links == frozenset(links_order[: k % 5])

    def test_draws_nest_across_counts(self):
        prev = frozenset()
        for k in range(0, 17):
            fs = FaultSet.from_counts(5, 8, cells=k, seed=7)
            dead = fs.dead_cells if fs is not None else frozenset()
            assert prev <= dead
            assert len(dead) == k
            prev = dead

    def test_link_prefix_independent_of_cell_count(self):
        a = FaultSet.from_counts(5, 8, cells=0, links=4, seed=11)
        b = FaultSet.from_counts(5, 8, cells=9, links=4, seed=11)
        assert a.dead_links == b.dead_links

    #: The first 8 cells and 8 links of ``kill_order(n, M, seed)``.  Pinned
    #: literally: every stored campaign's fault samples are prefixes of
    #: these orders, so no change to how they are drawn may move them.
    PINNED_ORDERS = {
        (6, 32, 0): (
            [(5, 29), (3, 21), (5, 6), (3, 2), (5, 25), (5, 21), (4, 2),
             (4, 10)],
            [(3, 9, 0), (2, 13, 0), (4, 23, 1), (5, 28, 0), (4, 21, 0),
             (3, 7, 0), (2, 28, 0), (4, 8, 0)],
        ),
        (6, 32, 7): (
            [(2, 2), (5, 25), (4, 24), (4, 9), (4, 13), (5, 24), (5, 23),
             (3, 4)],
            [(3, 24, 1), (2, 17, 0), (1, 7, 0), (4, 28, 0), (2, 16, 0),
             (5, 13, 1), (2, 11, 1), (4, 31, 1)],
        ),
        (5, 8, 0): (
            [(4, 2), (2, 4), (4, 5), (3, 2), (3, 3), (2, 2), (4, 6),
             (2, 6)],
            [(2, 2, 0), (1, 6, 1), (1, 5, 1), (3, 5, 1), (1, 2, 1),
             (1, 3, 1), (3, 3, 1), (2, 1, 1)],
        ),
        (5, 8, 7): (
            [(3, 7), (2, 4), (4, 2), (2, 3), (3, 6), (3, 4), (3, 2),
             (2, 0)],
            [(3, 0, 0), (3, 5, 0), (4, 5, 0), (2, 1, 1), (3, 6, 0),
             (3, 3, 0), (1, 0, 1), (2, 0, 0)],
        ),
    }

    @pytest.mark.parametrize("key", sorted(PINNED_ORDERS))
    def test_kill_orders_are_pinned(self, key):
        n, size, seed = key
        cells, links = self.PINNED_ORDERS[key]
        got_cells, got_links = FaultSet.kill_order(n, size, seed=seed)
        assert got_cells[:8] == cells and got_links[:8] == links
        # The shared-draw path: cell-only counts first, then link counts
        # compared against the same seed's ranks.
        counts = (
            [(k, 0, seed) for k in range(1, 9)]
            + [(0, k, seed) for k in range(1, 9)]
            + [(8, 8, seed)]
        )
        masks = masks_from_counts(n, size, counts)
        samples = [_dead(masks, k) for k in range(len(counts))]
        for k in range(1, 9):
            assert samples[k - 1].dead_cells == frozenset(cells[:k])
            assert not samples[k - 1].dead_links
            assert samples[k + 7].dead_links == frozenset(links[:k])
            assert not samples[k + 7].dead_cells
        assert samples[-1] == FaultSet(frozenset(cells), frozenset(links))
        # A caller's generator advances past both pools, drawn or not.
        rng = np.random.default_rng(seed)
        FaultSet.random(rng, n, size, n_dead_cells=1)
        after = rng.integers(1 << 30)
        rng = np.random.default_rng(seed)
        FaultSet.random(rng, n, size, n_dead_cells=1, n_dead_links=1)
        assert rng.integers(1 << 30) == after

    def test_kill_order_is_duplicate_free(self):
        cells_order, links_order = FaultSet.kill_order(6, 16, seed=5)
        assert len(set(cells_order)) == len(cells_order)
        assert len(set(links_order)) == len(links_order)


def _rank_mask_networks():
    from repro.networks.catalog import NETWORK_CATALOG

    return sorted(NETWORK_CATALOG.names()) + ["double_link_network"]


class TestRankMasks:
    """Kill-rank masks against the fault sets and kill orders they
    stand for, independently re-derived."""

    @pytest.mark.parametrize("name", _rank_mask_networks())
    def test_masks_from_counts_match_fault_sets(self, name):
        from repro.networks.counterexamples import double_link_network
        from repro.spec.scenario import NetworkSpec

        if name == "double_link_network":
            net = double_link_network(5)
        else:
            net = NetworkSpec.catalog(name, n=5).resolve()
        n, size = net.n_stages, net.size
        cell_pool, link_pool = (n - 2) * size, 2 * (n - 1) * size
        counts = [
            (cells, links, seed)
            for seed in (0, 7)
            for cells in (0, 1, cell_pool // 2, cell_pool)
            for links in (0, 1, link_pool // 2, link_pool)
        ]
        masks = masks_from_counts(n, size, counts)
        cells_alive, links_alive = masks.alive()
        assert cells_alive.shape == (len(counts), n, size)
        assert links_alive.shape == (len(counts), n - 1, size, 2)
        orders = {seed: _reference_kill_order(n, size, seed) for seed in (0, 7)}
        for k, (cells, links, seed) in enumerate(counts):
            faults = FaultSet.from_counts(
                n, size, cells=cells, links=links, seed=seed
            )
            alone_cells, alone_links = fault_masks(net, [faults]).alive()
            assert np.array_equal(cells_alive[k], alone_cells[0]), k
            assert np.array_equal(links_alive[k], alone_links[0]), k
            cell_order, link_order = orders[seed]
            assert _dead(masks, k) == FaultSet(
                frozenset(cell_order[:cells]), frozenset(link_order[:links])
            ), k

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("spare", [True, False])
    def test_kill_order_matches_the_pool_permutation(self, seed, spare):
        for n, size in ((2, 2), (5, 8), (6, 32)):
            cells, links = FaultSet.kill_order(
                n, size, seed=seed, spare_terminal_stages=spare
            )
            assert (cells, links) == _reference_kill_order(n, size, seed, spare)
            pool = len(cells)
            for k in sorted({0, min(1, pool), pool // 2, pool}):
                fs = FaultSet.random(
                    np.random.default_rng(seed), n, size, n_dead_cells=k,
                    n_dead_links=k, spare_terminal_stages=spare,
                )
                assert fs == FaultSet(
                    frozenset(cells[:k]), frozenset(links[:k])
                )


# ---------------------------------------------------------------------------
# sweep spec


class TestReliabilitySweepSpec:
    def test_round_trip(self):
        spec = ReliabilitySweepSpec(
            networks=("omega", "omega_3dp"),
            stages=3,
            rate=0.7,
            draws=4,
            max_faults=5,
            threshold=0.95,
        )
        again = ReliabilitySweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest == spec.digest

    def test_unknown_field_rejected(self):
        doc = ReliabilitySweepSpec().to_dict()
        doc["surprise"] = 1
        with pytest.raises(ReproError, match="surprise"):
            ReliabilitySweepSpec.from_dict(doc)

    def test_validation(self):
        with pytest.raises(ReproError):
            ReliabilitySweepSpec(stages=1)
        with pytest.raises(ReproError):
            ReliabilitySweepSpec(draws=0)
        with pytest.raises(ReproError):
            ReliabilitySweepSpec(threshold=0.0)
        with pytest.raises(ReproError):
            ReliabilitySweepSpec(max_faults=-1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"rate": 1.5}, "rate must be in"),
            ({"rate": 0.0}, "rate must be in"),
            ({"cycles": 0}, "cycles must be positive"),
            ({"cycles": 2.5}, "cycles must be an int"),
            ({"policy": "retry"}, "policy must be one of"),
            # A bool would serialize as true: a second digest of one sweep.
            ({"draws": True}, "draws must be an int"),
            ({"max_faults": True}, "max_faults must be None or an int"),
            ({"fault_seed_base": True}, "fault_seed_base must be an int"),
            ({"fault_seed_base": -1}, "fault_seed_base must be an int"),
            # A coerced drain would hash as 1, not true.
            ({"drain": 1}, "drain must be a bool"),
            ({"drain": 0}, "drain must be a bool"),
            ({"drain": "no"}, "drain must be a bool"),
        ],
    )
    def test_bad_values_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ReproError, match=message):
            ReliabilitySweepSpec(**kwargs)

    def test_wire_round_trip(self):
        spec = ReliabilitySweepSpec(stages=3, draws=2)
        assert loads_sweep(dumps_sweep(spec)) == spec

    def test_wire_format_errors(self):
        with pytest.raises(ReproError, match="format"):
            loads_sweep(json.dumps({"format": "bogus", "version": 1}))
        doc = json.loads(dumps_sweep(ReliabilitySweepSpec()))
        doc["version"] = 99
        with pytest.raises(ReproError, match="version"):
            loads_sweep(json.dumps(doc))

    def test_to_campaign_is_a_nested_fault_grid(self):
        spec = ReliabilitySweepSpec(
            networks=("omega", "extra_stage_omega"),
            stages=4,
            draws=3,
            max_faults=6,
        )
        campaign = spec.to_campaign()
        assert campaign.nested_faults is True
        assert campaign.faults == tuple(range(7))
        assert campaign.seeds == (0, 1, 2)
        assert campaign.topologies == ("omega", "extra_stage_omega")
        assert campaign.stages == (4,)

    def test_default_saturation_is_smallest_interior_pool(self):
        # omega(4) has 2 interior stages x 8 cells = 16 candidate
        # deaths; the extra-stage variant has more, and the sweep stops
        # where the *smallest* network saturates.
        spec = ReliabilitySweepSpec(
            networks=("omega", "extra_stage_omega"), stages=4
        )
        assert spec.resolved_max_faults() == 16

    def test_baseline_label_is_first_network(self):
        spec = ReliabilitySweepSpec(networks=("omega", "extra_stage_omega"))
        assert spec.baseline_label() == "omega(4)"


# ---------------------------------------------------------------------------
# aggregates


SWEEP = ReliabilitySweepSpec(
    networks=("omega", "extra_stage_omega", "omega_3dp"),
    stages=4,
    rate=0.8,
    draws=3,
    max_faults=6,
    cycles=40,
)


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    store = tmp_path_factory.mktemp("reliability") / "sweep.jsonl"
    summary = run_campaign(SWEEP.to_campaign(), store, batch=8)
    assert summary["quarantined"] == 0
    report = reliability_from_store(
        store, threshold=SWEEP.threshold, baseline=SWEEP.baseline_label()
    )
    return report


class TestReliabilityAggregates:
    def test_curves_are_monotone_non_increasing(self, sweep_report):
        by_topo: dict[str, list[float]] = {}
        for row in sweep_report["curves"]:
            by_topo.setdefault(row["topology"], []).append(
                row["availability_mean"]
            )
        assert set(by_topo) == {
            "omega(4)", "extra_stage_omega(4)", "omega_3dp(4)"
        }
        for label, means in by_topo.items():
            assert len(means) == SWEEP.max_faults + 1
            assert means == sorted(means, reverse=True), label
            assert means[0] == 1.0

    def test_augmented_networks_strictly_beat_omega(self, sweep_report):
        # The acceptance criterion: at equal fault counts and identical
        # draws, both augmented networks report strictly higher
        # terminal availability than plain omega for every non-zero
        # count in the sweep.
        curves = {
            (row["topology"], row["fault_cells"]): row["availability_mean"]
            for row in sweep_report["curves"]
        }
        for k in range(1, SWEEP.max_faults + 1):
            base = curves[("omega(4)", k)]
            assert curves[("extra_stage_omega(4)", k)] > base
            assert curves[("omega_3dp(4)", k)] > base

    def test_saturation_and_mttf_ordering(self, sweep_report):
        rows = {r["topology"]: r for r in sweep_report["summary"]}
        assert rows["omega(4)"]["baseline"] is True
        assert rows["omega(4)"]["saturation"] == 1
        assert (
            rows["omega(4)"]["mttf_faults"]
            < rows["extra_stage_omega(4)"]["mttf_faults"]
        )
        assert (
            rows["extra_stage_omega(4)"]["mttf_faults"]
            < rows["omega_3dp(4)"]["mttf_faults"]
        )
        sat_omega = rows["omega(4)"]["saturation"]
        for label in ("extra_stage_omega(4)", "omega_3dp(4)"):
            sat = rows[label]["saturation"]
            assert sat is None or sat > sat_omega

    def test_resilience_gains_are_positive(self, sweep_report):
        assert sweep_report["resilience"]
        for row in sweep_report["resilience"]:
            assert row["baseline"] == "omega(4)"
            assert row["extra_cells"] > 0
            if row["faults"] == 0:
                assert row["availability_gain"] == 0.0
            else:
                assert row["availability_gain"] > 0
                assert row["gain_per_cell"] > 0

    def test_tables_render(self, sweep_report):
        table = reliability_table(sweep_report)
        assert "avail" in table and "omega_3dp" in table
        summary = reliability_summary_table(sweep_report)
        assert "saturation" in summary and "mttf" in summary

    def test_threshold_validated(self, sweep_report):
        with pytest.raises(ReproError, match="threshold"):
            reliability_report([], threshold=1.5)

    def test_unknown_baseline_rejected(self, tmp_path):
        store = tmp_path / "tiny.jsonl"
        spec = ReliabilitySweepSpec(stages=3, draws=1, max_faults=1, cycles=10)
        run_campaign(spec.to_campaign(), store)
        with pytest.raises(ReproError, match="baseline"):
            reliability_from_store(store, baseline="nonesuch")

    def test_conflicting_duplicate_records_rejected(
        self, tmp_path, reduce_records, same_run_message
    ):
        store = tmp_path / "dup.jsonl"
        spec = ReliabilitySweepSpec(stages=3, draws=1, max_faults=1, cycles=10)
        run_campaign(spec.to_campaign(), store)
        records = load_records(store)
        # A literal re-read of the same record is idempotent ...
        assert reduce_records(records + [records[0]]) == reduce_records(
            records
        )
        # ... but a different result for the same scenario cell is not.
        clash = json.loads(json.dumps(records[0]))
        clash["hash"] = "0" * len(records[0]["hash"])
        with pytest.raises(
            ReproError, match=same_run_message(records[0], clash["hash"])
        ):
            reduce_records(records + [clash])


class TestExecutionPathByteIdentity:
    """Inline, pooled and resumed sweeps agree to the byte."""

    SPEC = ReliabilitySweepSpec(
        networks=("omega", "extra_stage_omega"),
        stages=3,
        draws=2,
        max_faults=3,
        cycles=20,
    )

    def _render(self, store):
        report = reliability_from_store(
            store,
            threshold=self.SPEC.threshold,
            baseline=self.SPEC.baseline_label(),
        )
        return dumps_reliability(report, indent=2)

    def test_byte_identical_across_paths(self, tmp_path):
        campaign = self.SPEC.to_campaign()

        inline = tmp_path / "inline.jsonl"
        run_campaign(campaign, inline)

        pooled = tmp_path / "pooled.jsonl"
        run_campaign(campaign, pooled, workers=2)

        resumed = tmp_path / "resumed.jsonl"
        partial = dataclasses.replace(campaign, faults=campaign.faults[:2])
        run_campaign(partial, resumed)
        summary = run_campaign(campaign, resumed, resume=True)
        assert summary["skipped"] > 0

        reference = self._render(inline)
        assert self._render(pooled) == reference
        assert self._render(resumed) == reference


class TestStackedReduction:
    """Each fault trajectory is drawn once and swept once per link count.

    At n = 5 a topology's 48-cell pool gives 97 samples over two draws;
    the reduction reads all of a draw's cell counts from one sweep.
    """

    SPEC = ReliabilitySweepSpec(
        networks=("omega", "extra_stage_omega"),
        stages=5,
        draws=2,
        cycles=5,
    )

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("stacked") / "nested.jsonl"
        run_campaign(self.SPEC.to_campaign(), store)
        return load_records(store)

    def test_draws_once_per_trajectory(self, tmp_path, monkeypatch):
        from repro.sim import batch as sim_batch
        from repro.sim import faults as sim_faults

        draws, slabs, sweeps = [], [], []
        kill_ranks = sim_faults._kill_ranks
        pack_slabs = sim_batch.pack_slabs
        sweep = sim_faults.backward_sweep

        def counting_kill_ranks(rng, n_stages, size, **kwargs):
            draws.append((n_stages, size))
            return kill_ranks(rng, n_stages, size, **kwargs)

        def recording_pack_slabs(specs, *args):
            packed = pack_slabs(specs, *args)
            slabs.extend([specs[i] for i in idxs] for idxs in packed)
            return packed

        def counting_sweep(net, cells, links):
            sweeps.append((net.n_stages, len(cells)))
            return sweep(net, cells, links)

        monkeypatch.setattr(sim_faults, "_kill_ranks", counting_kill_ranks)
        monkeypatch.setattr(sim_batch, "pack_slabs", recording_pack_slabs)
        store = tmp_path / "draws.jsonl"
        run_campaign(self.SPEC.to_campaign(), store)
        # The run: at most one draw per fault seed of each slab (a slab
        # is one network, hence one shape).
        per_slab = [{s.faults.seed for s in slab if s.faults} for slab in slabs]
        assert any(len(slab) > 1 for slab in slabs)
        assert 0 < len(draws) <= sum(len(seeds) for seeds in per_slab)

        records = load_records(store)
        draws.clear()
        monkeypatch.setattr(sim_faults, "backward_sweep", counting_sweep)
        reliability_report(records)
        trajectories, groups, samples = set(), set(), set()
        for record in records:
            s, r = record["scenario"], record["report"]
            if s["fault_cells"] or s["fault_links"]:
                label, seed = s["topology"]["label"], s["fault_seed"]
                trajectories.add((label, seed))
                groups.add((label, r["n_stages"], seed, s["fault_links"]))
                samples.add((label, s["fault_cells"], s["fault_links"], seed))
        # The reduction: one draw per (topology, fault seed) and exactly
        # one single-sample sweep per (topology, seed, link count), while
        # each sweep serves many samples.
        assert len(draws) == len(trajectories) == 4
        assert sorted(sweeps) == sorted((n, 1) for _, n, _, _ in groups)
        assert len(samples) > 10 * len(sweeps)

    def test_seeded_path_builds_no_fault_set(
        self, tmp_path, monkeypatch, records
    ):
        # Seeded samples stay kill-rank masks on both sides of a sweep:
        # the slab compile and the reliability reduction.
        from repro.sim import faults as sim_faults

        def refuse(self):
            raise AssertionError("FaultSet built on the seeded path")

        reference = dumps_reliability(reliability_report(records))
        monkeypatch.setattr(sim_faults.FaultSet, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            FaultSet()
        store = tmp_path / "masks.jsonl"
        summary = run_campaign(self.SPEC.to_campaign(), store)
        assert summary["quarantined"] == 0
        assert summary["ran"] == summary["total"] == len(records)
        again = load_records(store)
        assert again == records
        assert dumps_reliability(reliability_report(again)) == reference

    def test_one_shot_iterable_matches_list(self, records):
        reference = dumps_reliability(reliability_report(records))
        one_shot = dumps_reliability(reliability_report(iter(records)))
        backwards = dumps_reliability(
            reliability_report(r for r in reversed(records))
        )
        assert one_shot == backwards == reference


class TestPinnedReportBytes:
    """The reliability report's bytes, pinned across reduction rewrites.

    Both digests were recorded from the stacked-mask reduction this
    bottleneck-sweep reduction replaced; a store-format or reduction
    change that moves a single byte of either report fails here.
    """

    MIXED = CampaignSpec(
        topologies=("omega", "baseline", "extra_stage_omega"),
        stages=(4,),
        faults=(
            0, 2, {"cells": 1, "links": 2}, {"links": 4},
            {"cells": 3, "links": 4},
        ),
        seeds=(0, 1, 2),
        cycles=20,
        nested_faults=True,
    )

    @pytest.mark.parametrize("name, digest", [
        ("sweep", "6cd513e0e32aaaf4ed3e0fb2ef1bd51554d3dfd721feb886f515a2d794120626"),
        ("mixed", "28031c7f541b345e3f9a7f4311d5d0609b644dbe6598bb247ceaa8a16b62bfdc"),
    ])
    def test_report_digest(self, tmp_path, name, digest):
        spec = {
            "sweep": ReliabilitySweepSpec(stages=4, draws=4).to_campaign(),
            "mixed": self.MIXED,
        }[name]
        store = tmp_path / f"{name}.jsonl"
        run_campaign(spec, store)
        text = dumps_reliability(reliability_report(load_records(store)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# unroutable semantics (satellite S3)


def _fixed_dest_run(net, perm, faults, cycles, backend):
    traffic = PermutationTraffic(Permutation(np.asarray(perm)), rate=1.0)
    return simulate(
        net,
        traffic,
        cycles=cycles,
        policy="drop",
        seed=9,
        faults=faults,
        drain=True,
        backend=backend,
    )


class TestUnroutableIffUnreachable:
    """Packets drop as unroutable iff reachability says no path is left.

    With rate-1.0 permutation traffic every source offers its fixed
    destination from cycle 0, so the report-level statement is exact:
    ``unroutable > 0`` iff some pair ``(s, perm[s])`` is structurally
    disconnected by the fault set.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(VARIANTS)),
        n_cells=st.integers(min_value=0, max_value=4),
        n_links=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_per_variant(self, name, n_cells, n_links, seed):
        net = VARIANTS[name](3)
        faults = None
        if n_cells or n_links:
            faults = FaultSet.random(
                np.random.default_rng(seed ^ 0xFA117),
                net.n_stages,
                net.size,
                n_dead_cells=n_cells,
                n_dead_links=n_links,
            )
        rng = np.random.default_rng(seed)
        perm = rng.permutation(net.n_inputs)
        reach = terminal_reachability(net, faults or FaultSet())
        cut_pairs = any(not reach[s, d] for s, d in enumerate(perm))

        rep = _fixed_dest_run(net, perm, faults, 30, "numpy")
        assert (rep.unroutable > 0) == cut_pairs
        if not cut_pairs and rep.drain_cycles is not None:
            assert rep.in_flight == 0
        # Counter conservation: everything offered is delivered,
        # dropped, unroutable, still flying, or parked in the one-deep
        # wait buffer (at most one packet per source).
        accounted = (
            rep.delivered + rep.dropped + rep.unroutable + rep.in_flight
        )
        assert accounted <= rep.offered
        assert rep.offered - accounted <= net.n_inputs

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(sorted(VARIANTS)),
        n_cells=st.integers(min_value=0, max_value=3),
        n_links=st.integers(min_value=0, max_value=3),
        drop=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_backends_bit_identical_on_variants(
        self, name, n_cells, n_links, drop, seed
    ):
        # Extends the kernel bit-identity suite to the fault-tolerant
        # variants: NumPy slab of one vs the python-mode fused loop.
        net = VARIANTS[name](3)
        faults = None
        if n_cells or n_links:
            faults = FaultSet.random(
                np.random.default_rng(seed ^ 0xFA117),
                net.n_stages,
                net.size,
                n_dead_cells=n_cells,
                n_dead_links=n_links,
            )
        rng = np.random.default_rng(seed)
        perm = rng.permutation(net.n_inputs)
        traffic = PermutationTraffic(Permutation(perm), rate=1.0)
        tmats = traffic.destinations(
            np.random.default_rng(seed), net.n_inputs, 25
        )[:, None, :]
        comp, sample = compile_network(net, faults), np.zeros(1, np.intp)
        ref = numpy_backend.run_batch(
            comp, sample, tmats, None, 25, drop, True
        )
        fused = numba_backend.run_batch(
            comp, sample, tmats, None, 25, drop, True, python=True
        )
        for field in (
            "offered", "injected", "delivered", "dropped", "unroutable",
            "blocked_moves", "total_hops", "in_flight", "drain_cycles",
        ):
            assert np.array_equal(
                getattr(ref, field), getattr(fused, field)
            ), field
        assert np.array_equal(ref.occupancy, fused.occupancy)
        assert np.array_equal(ref.lat_counts, fused.lat_counts)

    @pytest.mark.skipif(
        not numba_available(),
        reason="numba backend not installed (pip install -e .[fast])",
    )
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_jitted_reports_identical_on_variants(self, name):
        net = VARIANTS[name](3)
        faults = FaultSet.random(
            np.random.default_rng(0xFA117), net.n_stages, net.size,
            n_dead_cells=1, n_dead_links=2,
        )
        perm = np.random.default_rng(1).permutation(net.n_inputs)
        a = _fixed_dest_run(net, perm, faults, 30, "numpy").to_dict()
        b = _fixed_dest_run(net, perm, faults, 30, "numba").to_dict()
        assert a == b
