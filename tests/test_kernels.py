"""Tests for the pluggable simulation kernel backends.

Five layers of guarantees:

* **Selection** — ``resolve_backend`` honours explicit names, the
  ``REPRO_SIM_BACKEND`` environment variable and availability-aware
  ``auto`` fallback, and fails loudly (with an install hint) when the
  numba backend is requested on an installation without it.  Every
  runner — ``simulate``, ``simulate_batch``, ``run_campaign`` inline and
  pooled — takes the backend as a call argument, checks it before any
  work and carries it to every kernel call.
* **Fused-kernel semantics** — the numba backend's cycle loop is a plain
  Python function until it is jitted, and that scalar loop is the
  independent oracle for the NumPy slab kernels on *every* installation
  (no numba required): every registered traffic pattern × policy ×
  random fault sets × drain × port schedules, at B=1 and B>1, must
  produce identical raw runs.  When numba *is*
  installed, the same property is asserted at the ``SimReport`` level
  through the public ``simulate``/``simulate_batch`` entry points
  (skip-marked otherwise, per the satellite contract).
* **The drop path** — the stateless-pipeline argument the stage-major
  NumPy ``drop`` kernel rests on (no blocked move, every latency
  ``n_stages``, wait buffers never hold, drain within ``n_stages``
  cycles) is asserted on the scalar oracle, and the kernel matches the
  oracle at any row chunking.
* **The block path** — the stage-parallel NumPy ``block`` kernel
  matches the oracle on every catalog topology at 5-6 stages and up
  to 16 scenarios, and on a pipeline that vacates and refills a full
  column in one cycle; its drain bound is asserted on the oracle.
* **Compile cache** — the LRU is keyed by structural content digest
  (equal tables share an entry across rebuilds), and each
  :class:`~repro.sim.compiled.CompileCache` keeps its own budget and
  counters; a campaign owns one per run, so nothing resizes the module
  default.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.campaign import (
    CampaignSpec,
    dumps_aggregate,
    expand_scenarios,
    load_records,
    run_campaign,
)
from repro.campaign.errors import QuarantineStore, quarantine_path
from repro.core.errors import ReproError
from repro.networks.benes import benes
from repro.networks.catalog import NETWORK_CATALOG
from repro.networks.omega import omega
from repro.sim import (
    FaultSet,
    TRAFFIC_PATTERNS,
    UniformTraffic,
    compile_cache_clear,
    compile_network,
    fault_masks,
    fault_structure,
    network_digest,
    numba_available,
    resolve_backend,
    simulate,
    simulate_batch,
)
from repro.sim import batch as sim_batch
from repro.sim import compiled
from repro.sim import traffic as sim_traffic
from repro.sim.compiled import CompileCache, CompiledNetwork, compile_key
from repro.sim.engine import schedule_from_switch_settings
from repro.sim.faults import FaultMasks, masks_from_counts
from repro.sim.kernels import (
    BACKEND_CHOICES,
    available_backends,
    get_backend,
    numba_backend,
    numpy_backend,
)
from repro.sim.metrics import latency_summary
from repro.spec.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
)

# ---------------------------------------------------------------------------
# selection


class TestBackendSelection:
    def test_choices_are_stable(self):
        assert BACKEND_CHOICES == ("auto", "numpy", "numba")
        assert set(available_backends()) == {"numpy", "numba"}
        assert available_backends()["numpy"] is True

    def test_explicit_numpy_always_resolves(self):
        assert resolve_backend("numpy") == "numpy"
        assert get_backend("numpy") is numpy_backend

    def test_auto_matches_availability(self):
        expected = "numba" if numba_available() else "numpy"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected
        assert resolve_backend(None) == expected

    def test_auto_falls_back_without_numba(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "AVAILABLE", False)
        assert resolve_backend("auto") == "numpy"

    def test_auto_prefers_numba_when_available(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "AVAILABLE", True)
        assert resolve_backend("auto") == "numba"

    def test_explicit_numba_without_numba_is_loud(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "AVAILABLE", False)
        with pytest.raises(ReproError, match=r"\[fast\]"):
            resolve_backend("numba")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            resolve_backend("cuda")

    def test_env_var_steers_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        assert resolve_backend("auto") == "numpy"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "bogus")
        with pytest.raises(ReproError, match="REPRO_SIM_BACKEND"):
            resolve_backend("auto")

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numba")
        assert resolve_backend("numpy") == "numpy"

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            simulate(
                omega(3), UniformTraffic(rate=0.5), cycles=5,
                backend="fortran",
            )

    def test_backend_is_not_scenario_identity(self):
        # The backend is an argument of the call that runs a spec, never
        # a field of it, so no wire dict, digest or group key sees it.
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.5),
            sim=SimPolicy(cycles=20),
        )
        assert "backend" not in spec.to_spec()
        with pytest.raises(TypeError):
            SimPolicy(backend="numba")
        assert simulate(spec, backend="numpy") == simulate(spec)


def _backend_calls():
    """Each public way to run specs, as ``(name, call(tmp_path, backend))``."""
    spec = ScenarioSpec(
        network=NetworkSpec.catalog("omega", n=3),
        traffic=TrafficSpec.of("uniform", 0.5),
        sim=SimPolicy(cycles=20),
    )
    grid = CampaignSpec(
        topologies=("omega", "baseline"), stages=(3,), rates=(0.5,),
        seeds=(0, 1), cycles=20,
    )

    def campaign(workers):
        return lambda tmp, backend: run_campaign(
            grid, tmp / "s.jsonl", workers=workers, backend=backend
        )

    return [
        ("simulate", lambda tmp, backend: simulate(spec, backend=backend)),
        (
            "simulate_batch",
            lambda tmp, backend: simulate_batch([spec], backend=backend),
        ),
        ("run_campaign-w1", campaign(1)),
        ("run_campaign-w2", campaign(2)),
    ]


_EACH_CALL = pytest.mark.parametrize(
    "call", [pytest.param(c, id=name) for name, c in _backend_calls()]
)


class TestBackendArgument:
    """One backend path: every runner takes ``backend=`` as an argument."""

    @_EACH_CALL
    def test_unknown_backend_fails_before_any_work(
        self, call, tmp_path, monkeypatch
    ):
        # Count compilations in every cache, the default and run-owned.
        built, real = [], compiled.CompiledNetwork
        monkeypatch.setattr(
            compiled, "CompiledNetwork",
            lambda *args: built.append(args) or real(*args),
        )
        compile_cache_clear()
        with pytest.raises(ReproError, match="unknown simulation backend"):
            call(tmp_path, "fortran")
        assert built == []
        assert list(tmp_path.iterdir()) == []

    @_EACH_CALL
    def test_request_reaches_every_kernel_call(
        self, call, tmp_path, monkeypatch
    ):
        # "auto" would resolve to an unavailable numba here, so a group
        # that dropped the request would fail (and be quarantined).
        monkeypatch.setattr(numba_backend, "AVAILABLE", False)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numba")
        result = call(tmp_path, "numpy")
        if isinstance(result, dict):
            assert result["ran"] == 4 and result["quarantined"] == 0

    def test_quarantine_records_the_request(self, tmp_path):
        grid = CampaignSpec(
            topologies=("omega",), stages=(3,), rates=(0.5,), cycles=20
        )
        (poison,) = [s.digest for s in expand_scenarios(grid)]
        run_campaign(
            grid, tmp_path / "s.jsonl", backend="numpy",
            chaos=f"poison={poison[:8]}", retries=0,
        )
        (failure,) = QuarantineStore(
            quarantine_path(tmp_path / "s.jsonl")
        ).records()
        assert failure.backends == ("numpy",)

    @_EACH_CALL
    def test_traced_numpy_run_stamps_its_manifest(self, call, tmp_path):
        with obs.tracing() as tr:
            call(tmp_path, "numpy")
        (man,) = [e["manifest"] for e in tr.events if e["ev"] == "manifest"]
        assert man["backend"] == "numpy"


# ---------------------------------------------------------------------------
# fused-kernel semantics (python mode: runs with or without numba)


def _traffic_for(name: str, rate: float, n_in: int, seed: int):
    """A valid TrafficPattern for any registered pattern name."""
    if name == "uniform":
        return TrafficSpec.of("uniform", rate).resolve()
    if name == "hotspot":
        return TrafficSpec.of("hotspot", rate, fraction=0.4).resolve()
    if name == "bitrev":
        return TrafficSpec.of("bitrev", rate).resolve()
    if name == "transpose":
        return TrafficSpec.of("transpose", rate).resolve()
    if name == "permutation":
        perm = np.random.default_rng(seed).permutation(n_in).tolist()
        return TrafficSpec.of("permutation", rate, perm=perm).resolve()
    raise AssertionError(
        f"no test strategy for registered traffic pattern {name!r}; "
        "extend _traffic_for"
    )


# Every registered pattern (the hidden `permutation` entry included) must
# be covered, or the guard in _traffic_for fails the test run.
ALL_PATTERNS = sorted(set(TRAFFIC_PATTERNS.names()) | {"permutation"})


def _slab_runs(net, faults, tmats, scheds, cycles, drop, drain):
    """NumPy ``run_batch`` and the Python-mode fused loop on one slab."""
    comp = compile_network(net, faults)
    sample = np.zeros(tmats.shape[1], dtype=np.intp)
    ref = numpy_backend.run_batch(
        comp, sample, tmats, scheds, cycles, drop, drain
    )
    fused = numba_backend.run_batch(
        comp, sample, tmats, scheds, cycles, drop, drain, python=True
    )
    return ref, fused


_COUNTERS = (
    "offered", "injected", "delivered", "dropped", "unroutable",
    "blocked_moves", "total_hops", "in_flight", "drain_cycles",
)


def _assert_runs_identical(ref, fused):
    for field in _COUNTERS:
        assert np.array_equal(
            getattr(ref, field), getattr(fused, field)
        ), field
    assert np.array_equal(ref.occupancy, fused.occupancy)
    assert np.array_equal(ref.lat_counts, fused.lat_counts)


def _assert_every_latency_n(run, n):
    """Every packet ``run`` delivered took exactly ``n`` cycles."""
    assert run.lat_counts.shape[1] in (0, n + 1)
    assert not run.lat_counts[:, :n].any()
    assert np.array_equal(run.lat_counts[:, n:].sum(axis=1), run.delivered)


class TestFusedKernelSemantics:
    """Python-mode fused loop vs the NumPy reference, all installs."""

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.sampled_from(ALL_PATTERNS),
        drop=st.booleans(),
        drain=st.booleans(),
        multipath=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=3),
        rate=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_single_runs_identical(
        self, pattern, drop, drain, multipath, n_cells, n_links, rate, seed
    ):
        # benes exercises the ambiguous (-2) adaptive-port path, omega
        # the unique-path tables; faults exercise links/unroutable.
        net = benes(2) if multipath else omega(4)
        faults = None
        if n_cells or n_links:
            faults = FaultSet.random(
                np.random.default_rng(seed ^ 0xFA117),
                net.n_stages,
                net.size,
                n_dead_cells=n_cells,
                n_dead_links=n_links,
            )
        traffic = _traffic_for(pattern, rate, net.n_inputs, seed)
        tmat = traffic.destinations(
            np.random.default_rng(seed), net.n_inputs, 30
        )
        ref, fused = _slab_runs(
            net, faults, tmat[:, None, :], None, 30, drop, drain
        )
        _assert_runs_identical(ref, fused)

    def test_every_registered_pattern_is_covered(self):
        for name in TRAFFIC_PATTERNS.names():
            assert name in ALL_PATTERNS
            _traffic_for(name, 0.5, 16, 0)

    def test_port_schedule_path_identical(self):
        from repro.permutations.permutation import Permutation
        from repro.routing.rearrangeable import benes_switch_settings
        from repro.sim import PermutationTraffic

        net = benes(3)
        rng = np.random.default_rng(11)
        perms = [Permutation.random(rng, net.n_inputs) for _ in range(2)]
        scheds = np.stack([
            schedule_from_switch_settings(net, benes_switch_settings(p))
            for p in perms
        ])
        tmats = np.stack(
            [
                PermutationTraffic(p, rate=1.0).destinations(
                    np.random.default_rng(3), net.n_inputs, 20
                )
                for p in perms
            ],
            axis=1,
        )
        # ``drop`` drained, then ``block`` with drain on and off (the
        # stage-parallel kernel's schedule-gather branch).
        for drop, drain in ((True, True), (False, True), (False, False)):
            for b in (1, 2):
                ref, fused = _slab_runs(
                    net, None, tmats[:, :b], scheds[:b], 20, drop, drain
                )
                _assert_runs_identical(ref, fused)
                assert not ref.dropped.any() and not ref.unroutable.any()

    @settings(max_examples=20, deadline=None)
    @given(
        pattern=st.sampled_from(ALL_PATTERNS),
        drop=st.booleans(),
        drain=st.booleans(),
        multipath=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=3),
        batch=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_batch_runs_identical(
        self, pattern, drop, drain, multipath, n_cells, n_links, batch,
        seed,
    ):
        net = benes(2) if multipath else omega(3)
        faults = None
        if n_cells or n_links:
            faults = FaultSet.random(
                np.random.default_rng(seed ^ 0xFA117),
                net.n_stages,
                net.size,
                n_dead_cells=n_cells,
                n_dead_links=n_links,
            )
        cycles = 20
        tmats = np.empty((cycles, batch, net.n_inputs), dtype=np.int32)
        for i in range(batch):
            traffic = _traffic_for(pattern, 0.9, net.n_inputs, seed + i)
            tmats[:, i] = traffic.destinations(
                np.random.default_rng(seed + i), net.n_inputs, cycles
            )
        ref, fused = _slab_runs(
            net, faults, tmats, None, cycles, drop, drain
        )
        _assert_runs_identical(ref, fused)


# ---------------------------------------------------------------------------
# the drop-path argument, pinned on the scalar oracle

# Every catalog entry, single- and multipath, small enough for the
# Python loop: 3-4 stage networks plus Benes/omega_3dp at 5 stages.
CATALOG_NAMES = sorted(NETWORK_CATALOG.names())


class TestDropPathArgument:
    """Under ``drop`` the pipeline holds no state from cycle to cycle.

    A cycle runs back to front, so every stage-``j+1`` packet has left
    its slot before stage ``j`` moves: no move is ever blocked, wait
    buffers inject on the cycle they draw, and a packet injected at
    cycle ``c`` is at stage ``j`` at the end of cycle ``c + j``.  The
    stage-major NumPy ``drop`` kernel is built on this argument, so it
    is asserted here on the independent Python fused loop, not on the
    kernel that relies on it.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(CATALOG_NAMES),
        drain=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=3),
        spare_terminals=st.booleans(),
        cycles=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_no_state_between_cycles(
        self, name, drain, n_cells, n_links, spare_terminals, cycles, seed
    ):
        net = NetworkSpec.catalog(name, n=3).resolve()
        n = net.n_stages
        faults = FaultSet.random(
            np.random.default_rng(seed ^ 0xFA117),
            n,
            net.size,
            n_dead_cells=n_cells,
            n_dead_links=n_links,
            spare_terminal_stages=spare_terminals,
        )
        tmats = np.stack(
            [
                UniformTraffic(rate=0.9).destinations(
                    np.random.default_rng(seed + i), net.n_inputs, cycles
                )
                for i in range(2)
            ],
            axis=1,
        )
        comp = compile_network(net, faults)
        run = numba_backend.run_batch(
            comp, np.zeros(2, dtype=np.intp), tmats, None, cycles, True,
            drain, python=True,
        )
        assert not run.blocked_moves.any()
        _assert_every_latency_n(run, n)
        # Every draw is offered, so no wait buffer ever held a packet;
        # the draws that do not inject are exactly the dead sources'.
        draws = (tmats >= 0).sum(axis=(0, 2))
        dead_draws = (tmats[:, :, ~comp.src_alive[0]] >= 0).sum(axis=(0, 2))
        assert np.array_equal(run.offered, draws)
        assert np.array_equal(run.offered, run.injected + dead_draws)
        assert (run.drain_cycles <= n).all()
        if drain:
            assert not run.in_flight.any()


class TestBlockPathArgument:
    """Under ``block`` each stage moves what it held a cycle ago.

    A cycle runs back to front and only stage ``j - 1`` feeds stage
    ``j``, so when stage ``j`` moves it still holds its state from the
    end of the previous cycle.  The stage-parallel NumPy ``block``
    kernel routes and arbitrates every stage from that state in one
    pass, and only back-pressure (a free or just-vacated target slot)
    runs stage by stage.  Here the kernel meets the independent Python
    fused loop on shapes and topologies the tests above do not reach,
    and the drain argument it relies on is asserted on that loop.
    """

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @settings(max_examples=4, deadline=None)
    @given(
        order=st.integers(min_value=5, max_value=6),
        batch=st.sampled_from([1, 4, 16]),
        n_cells=st.integers(min_value=0, max_value=3),
        n_links=st.integers(min_value=0, max_value=4),
        spare_terminals=st.booleans(),
        drain=st.booleans(),
        cycles=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_scalar_oracle(
        self, name, order, batch, n_cells, n_links, spare_terminals,
        drain, cycles, seed,
    ):
        net = NetworkSpec.catalog(name, n=order).resolve()
        faults = FaultSet.random(
            np.random.default_rng(seed ^ 0xFA117),
            net.n_stages,
            net.size,
            n_dead_cells=n_cells,
            n_dead_links=n_links,
            spare_terminal_stages=spare_terminals,
        )
        # Per-scenario patterns and rates, so drained scenarios empty on
        # different cycles.
        tmats = np.empty((cycles, batch, net.n_inputs), dtype=np.int32)
        for i in range(batch):
            pattern = ALL_PATTERNS[(seed + i) % len(ALL_PATTERNS)]
            traffic = _traffic_for(
                pattern, 0.3 + 0.7 * (i % 3) / 2, net.n_inputs, seed + i
            )
            tmats[:, i] = traffic.destinations(
                np.random.default_rng(seed + i), net.n_inputs, cycles
            )
        ref, fused = _slab_runs(net, faults, tmats, None, cycles, False, drain)
        _assert_runs_identical(ref, fused)
        assert not fused.dropped.any()
        if drain:
            # Each drain cycle advances the deepest occupied stage, so a
            # scenario empties within n + 1 cycles per packet it held.
            held = numba_backend.run_batch(
                compile_network(net, faults),
                np.zeros(tmats.shape[1], dtype=np.intp), tmats, None,
                cycles, False, False, python=True,
            ).in_flight
            assert (fused.drain_cycles <= (net.n_stages + 1) * held).all()
            assert not fused.in_flight.any()

    def test_faulted_slab_with_dead_sources_drains_unevenly(self):
        net = omega(5)
        faults = FaultSet(
            dead_cells=frozenset({(1, 3), (3, 5)}),
            dead_links=frozenset({(2, 7, 0), (4, 1, 1)}),
        )
        comp = compile_network(net, faults)
        assert not comp.src_alive.all()
        tmats = np.stack(
            [
                _traffic_for(p, r, net.n_inputs, 5).destinations(
                    np.random.default_rng(i), net.n_inputs, 30
                )
                for i, (p, r) in enumerate(
                    [("uniform", 0.2), ("hotspot", 1.0), ("bitrev", 0.7)]
                )
            ],
            axis=1,
        )
        ref, fused = _slab_runs(net, faults, tmats, None, 30, False, True)
        _assert_runs_identical(ref, fused)
        assert fused.unroutable.all()
        assert len(set(fused.drain_cycles.tolist())) == 3

    def test_full_column_vacates_and_refills_in_one_cycle(self):
        # Every source sends, every cycle, to the output its all-straight
        # (scenario 0) or all-crossed (scenario 1) switch path reaches,
        # so no two packets ever want one port.  The pipeline then runs
        # full: each cycle every stage moves into slots its next stage
        # left in that same cycle.  A back-pressure chain that read the
        # state from before the cycle's moves would block them.
        net = omega(4)
        comp = compile_network(net)
        n, n_in, cycles = net.n_stages, net.n_inputs, 12
        dests = []
        for cross in (0, 1):
            row = []
            for src in range(n_in):
                cell, slot = src >> 1, src & 1
                for j in range(n - 1):
                    port = slot ^ cross
                    cell, slot = (
                        comp.child[j, cell, port], comp.slots[j, cell, port]
                    )
                row.append(2 * cell + (slot ^ cross))
            dests.append(row)
        tmats = np.broadcast_to(
            np.array(dests, dtype=np.int32), (cycles, 2, n_in)
        ).copy()
        ref, fused = _slab_runs(net, None, tmats, None, cycles, False, False)
        _assert_runs_identical(ref, fused)
        assert not fused.blocked_moves.any()
        assert (fused.delivered == n_in * (cycles - n)).all()
        _assert_every_latency_n(fused, n)
        full = n_in * (cycles - np.arange(n))
        assert (fused.occupancy == full[:, None]).all()


def _uniform_slab(net, cycles, batch, seed):
    return np.stack(
        [
            UniformTraffic(rate=0.9).destinations(
                np.random.default_rng(seed + i), net.n_inputs, cycles
            )
            for i in range(batch)
        ],
        axis=1,
    )


def _sampled_faults(net, cells, links, seed):
    return FaultSet.random(
        np.random.default_rng(seed), net.n_stages, net.size,
        n_dead_cells=cells, n_dead_links=links, spare_terminal_stages=False,
    )


def _benes_schedule_slab():
    from repro.permutations.permutation import Permutation
    from repro.routing.rearrangeable import benes_switch_settings
    from repro.sim import PermutationTraffic

    net = benes(3)
    rng = np.random.default_rng(11)
    perms = [Permutation.random(rng, net.n_inputs) for _ in range(2)]
    scheds = np.stack([
        schedule_from_switch_settings(net, benes_switch_settings(p))
        for p in perms
    ])
    tmats = np.stack(
        [
            PermutationTraffic(p, rate=0.8).destinations(
                np.random.default_rng(3), net.n_inputs, 17
            )
            for p in perms
        ],
        axis=1,
    )
    return net, _sampled_faults(net, 0, 2, 9), tmats, scheds, False


# label -> () -> (net, faults, tmats, scheds, drain), all under ``drop``.
_CHUNK_SLABS = {
    "faulted_drained": lambda: (
        omega(4), _sampled_faults(omega(4), 2, 3, 5),
        _uniform_slab(omega(4), 23, 3, 1), None, True,
    ),
    "benes_schedule": _benes_schedule_slab,
    # cycles < n_stages without drain: nothing ejects.
    "short_undrained": lambda: (
        omega(5), _sampled_faults(omega(5), 1, 1, 2),
        _uniform_slab(omega(5), 3, 2, 7), None, False,
    ),
    "one_cycle": lambda: (
        omega(4), None, _uniform_slab(omega(4), 1, 2, 4), None, True,
    ),
}


class TestDropChunkBoundaries:
    """The stage-major ``drop`` kernel is exact at any row chunking.

    The oracle runs above fit one chunk; here the chunk is forced to one
    row, to a row count that does not divide ``cycles``, and to the
    whole slab.
    """

    @pytest.mark.parametrize("slab", sorted(_CHUNK_SLABS))
    @pytest.mark.parametrize("chunk", ["one_row", "ragged", "whole"])
    def test_chunked_runs_identical(self, slab, chunk, monkeypatch):
        net, faults, tmats, scheds, drain = _CHUNK_SLABS[slab]()
        cycles, batch, slots = tmats.shape
        rows = {
            "one_row": 1,
            # The smallest row count that leaves a partial chunk.
            "ragged": next(k for k in range(2, cycles + 2) if cycles % k),
            "whole": cycles,
        }[chunk]
        monkeypatch.setattr(
            numpy_backend, "_CHUNK_SLOTS", rows * batch * slots
        )
        ref, fused = _slab_runs(net, faults, tmats, scheds, cycles, True, drain)
        _assert_runs_identical(ref, fused)


class TestPinnedDropBytes:
    """A faulted multipath ``drop`` campaign's bytes, pinned.

    ``benes`` and ``extra_stage_omega`` route through ``-2`` ports,
    ``omega_3dp`` through double links, and the fault axis kills cells
    and severs links, so every ``drop`` kernel branch runs on several
    samples per slab.  Both digests of each run were recorded from the
    stage-by-stage port-table kernel that the route-word kernel
    replaced; a change that moves one byte of the store or of the
    ``campaign report --json`` document fails here.
    """

    @pytest.mark.parametrize("drain, store_digest, report_digest", [
        (
            False,
            "3ee7c72e790db18384d5986585585022233d45712b07917eaa3a11d8647e8dbb",
            "d05303e817e80ef9bcbe9ae1bf73a7834ffe9d2e15902a1ba4728eb67346bffb",
        ),
        (
            True,
            "5e0d95576edd19e4886ed437cb200e7015c9388b90a9fc7d9addf15a28a4dce8",
            "491917ff6e88a7fa47250b3f6e524062d57594b8406fb8e8ebe63b4f4d2ee782",
        ),
    ])
    def test_campaign_digests(
        self, tmp_path, drain, store_digest, report_digest
    ):
        spec = CampaignSpec(
            topologies=("benes", "omega_3dp", "extra_stage_omega"),
            stages=(4, 5), traffic=("uniform", "hotspot"), rates=(0.8,),
            faults=(0, 2, {"links": 2}, {"cells": 2, "links": 3}),
            seeds=(0, 1, 2), cycles=50, policy="drop", drain=drain,
        )
        store = tmp_path / "drop.jsonl"
        run_campaign(spec, store)
        report = dumps_aggregate(load_records(store), indent=2)
        assert hashlib.sha256(store.read_bytes()).hexdigest() == store_digest
        assert hashlib.sha256(report.encode()).hexdigest() == report_digest


class TestPinnedBlockBytes:
    """A faulted ``block`` campaign's bytes, pinned.

    ``block`` is the one policy whose latencies vary: a packet waits
    behind back-pressure, so its mean and p99 depend on the contention
    and the faults.  The grid covers banyan (``omega``), ``-2`` port
    (``benes``, ``extra_stage_omega``) and double-link (``omega_3dp``)
    routing, dead cells and severed links, and rates up to saturation.
    A change that moves one byte of the store or of the ``campaign
    report --json`` document fails here.
    """

    @pytest.mark.parametrize("drain, store_digest, report_digest", [
        (
            False,
            "33115d3abe2a32f40b8a8b2c810e52c44b92f4f19c06f5d601257a59d695d907",
            "1ee7a5c151fb8b2963d5cfcde1a00475a25f22cd980ef81acca7afbcac909448",
        ),
        (
            True,
            "5d1fb620942149755963382b7ba2661a296ad5bed5fb09059db9b07f7263de06",
            "b1ff4a9b2efb23efb5ee53c97853d256e524b59fe74138b2c84f24a392b83334",
        ),
    ])
    def test_campaign_digests(
        self, tmp_path, drain, store_digest, report_digest
    ):
        spec = CampaignSpec(
            topologies=("omega", "benes", "omega_3dp", "extra_stage_omega"),
            stages=(4, 5), traffic=("uniform", "hotspot"), rates=(0.6, 1.0),
            faults=(0, 2, {"links": 2}, {"cells": 2, "links": 3}),
            seeds=(0, 1, 2), cycles=60, policy="block", drain=drain,
        )
        store = tmp_path / "block.jsonl"
        run_campaign(spec, store)
        report = dumps_aggregate(load_records(store), indent=2)
        assert hashlib.sha256(store.read_bytes()).hexdigest() == store_digest
        assert hashlib.sha256(report.encode()).hexdigest() == report_digest


class _Silent(UniformTraffic):
    """A pattern whose sources never offer a packet."""

    def destinations(self, rng, n_inputs, cycles):
        return np.full((cycles, n_inputs), -1, dtype=np.int32)


class TestLatencyCounts:
    """Every kernel returns the ``(B, T)`` latency table in one shape.

    ``T`` is one past the slab's longest latency, 0 when nothing is
    delivered.  Each case runs on both NumPy kernels and on the scalar
    loop, whose tables must be equal, shape included.
    """

    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("drain", [False, True])
    def test_silent_slab_has_no_latency_columns(self, drop, drain):
        net = omega(4)
        tmats = np.full((30, 3, net.n_inputs), -1, dtype=np.int16)
        for run in _slab_runs(net, None, tmats, None, 30, drop, drain):
            assert run.lat_counts.shape == (3, 0)
            assert run.lat_counts.dtype == np.int64
            summaries = [latency_summary(row) for row in run.lat_counts]
            assert summaries == [(0.0, 0.0)] * 3

    @pytest.mark.parametrize("policy", ["drop", "block"])
    def test_silent_slab_reports(self, policy):
        reports = simulate_batch(
            omega(4), [_Silent(rate=0.5)] * 3, cycles=30, policy=policy,
            backend="numpy",
        )
        for rep in reports:
            assert (rep.delivered, rep.mean_latency, rep.p99_latency) == (
                0, 0.0, 0.0
            )

    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("drain", [False, True])
    def test_idle_scenario_row_is_zero(self, drop, drain):
        net, cycles = omega(4), 40
        tmats = _uniform_slab(net, cycles, 3, seed=5)
        tmats[:, 1] = -1
        ref, fused = _slab_runs(net, None, tmats, None, cycles, drop, drain)
        _assert_runs_identical(ref, fused)
        for run in (ref, fused):
            assert run.delivered[[0, 2]].all() and not run.delivered[1]
            assert not run.lat_counts[1].any()
            assert latency_summary(run.lat_counts[1]) == (0.0, 0.0)
            # The last column holds the slab's longest latency.
            assert run.lat_counts[:, -1].any()
            assert np.array_equal(run.lat_counts.sum(axis=1), run.delivered)

    def test_block_drain_hotspot_outgrows_the_scalar_count_vector(self):
        net, cycles = omega(5), 200
        hotspot = TrafficSpec.of("hotspot", 0.9).resolve()
        tmats = np.stack(
            [
                hotspot.destinations(
                    np.random.default_rng(seed), net.n_inputs, cycles
                )
                for seed in range(2)
            ],
            axis=1,
        )
        ref, fused = _slab_runs(net, None, tmats, None, cycles, False, True)
        _assert_runs_identical(ref, fused)
        assert fused.lat_counts.shape[1] > numba_backend._LAT_SLOTS


def _mixed_samples(n):
    """Four fault samples of an ``n``-stage network, one per flag kind.

    Fault-free; a dead first-stage cell (two dead sources); dead links;
    and a dead last-stage cell (two unreachable destinations).
    """
    return [
        None,
        FaultSet(dead_cells=frozenset({(1, 1)})),
        FaultSet(dead_links=frozenset({(1, 2, 0), (n - 1, 1, 1)})),
        FaultSet(dead_cells=frozenset({(n, 2)})),
    ]


def _mixed_slab(name):
    """``(net, tmats, scheds)`` of an 8-scenario slab on ``name``."""
    if name == "benes_schedule":
        from repro.permutations.permutation import Permutation
        from repro.routing.rearrangeable import benes_switch_settings
        from repro.sim import PermutationTraffic

        net = benes(3)
        rng = np.random.default_rng(5)
        perms = [Permutation.random(rng, net.n_inputs) for _ in range(8)]
        scheds = np.stack([
            schedule_from_switch_settings(net, benes_switch_settings(p))
            for p in perms
        ])
        tmats = np.stack(
            [
                PermutationTraffic(p, rate=0.9).destinations(
                    np.random.default_rng(i), net.n_inputs, 18
                )
                for i, p in enumerate(perms)
            ],
            axis=1,
        )
        return net, tmats, scheds
    net = NetworkSpec.catalog(name, n=4).resolve()
    tmats = np.stack(
        [
            _traffic_for(p, 0.9, net.n_inputs, i).destinations(
                np.random.default_rng(i), net.n_inputs, 18
            )
            for i, p in enumerate(["uniform", "hotspot", "bitrev"] * 3)
        ][:8],
        axis=1,
    )
    return net, tmats, None


def _links_ok(comp):
    """Per gap: whether every link is alive in every sample of ``comp``."""
    return tuple(comp.links.all(axis=(0, 2, 3)).tolist())


def _scenario_fields(run, b):
    """Scenario ``b``'s slice of every ``BatchRun`` field.

    A slab's latency table is as wide as its longest latency, so a
    scenario's row is compared without its trailing zeros.
    """
    fields = {f: getattr(run, f)[b : b + 1] for f in _COUNTERS}
    fields["occupancy"] = run.occupancy[:, b]
    fields["lat_counts"] = np.trim_zeros(run.lat_counts[b], "b")
    return fields


class TestMixedSampleSlabs:
    """One slab, several fault samples: each scenario as if run alone.

    The slab's four samples differ in every per-gap flag and in the
    source mask, and its scenarios visit them out of order, so a kernel
    that applied one sample's tables, flags or offsets to another's
    scenario would differ from the runs alone.
    """

    @pytest.mark.parametrize(
        "name", ["omega", "extra_stage_omega", "benes_schedule"]
    )
    @pytest.mark.parametrize(
        "drop, drain",
        [(True, False), (True, True), (False, False), (False, True)],
    )
    def test_mixed_slab_equals_runs_alone(self, name, drop, drain):
        net, tmats, scheds = _mixed_slab(name)
        samples = _mixed_samples(net.n_stages)
        # Each sample compiled alone (K = 1), and the slab's stacked value.
        comps = [compile_network(net, f) for f in samples]
        stacked = CompileCache().compile(net, fault_masks(net, samples))
        assert not comps[1].src_alive.all() and comps[0].src_alive.all()
        assert len({_links_ok(c) for c in comps}) > 1
        if name == "extra_stage_omega":
            assert any(comps[0].has_amb)
        # The slab's flags combine its samples': any for the -2 work,
        # all for every link of a gap alive.
        for flag, combine in ((lambda c: c.has_amb, any), (_links_ok, all)):
            per_gap = zip(*map(flag, comps))
            assert flag(stacked) == tuple(map(combine, per_gap))
        sample = np.array([2, 0, 3, 1, 1, 3, 0, 2], dtype=np.intp)
        cycles = tmats.shape[0]
        slabs = []
        for python in (False, True):
            kern = numba_backend.run_batch if python else numpy_backend.run_batch
            kw = {"python": True} if python else {}
            slab = kern(
                stacked, sample, tmats, scheds, cycles, drop, drain, **kw
            )
            for b, k in enumerate(sample):
                alone = kern(
                    comps[k], np.zeros(1, dtype=np.intp),
                    tmats[:, b : b + 1],
                    None if scheds is None else scheds[b : b + 1],
                    cycles, drop, drain, **kw,
                )
                want = _scenario_fields(alone, 0)
                got = _scenario_fields(slab, b)
                for field, value in want.items():
                    assert got[field].dtype == value.dtype, field
                    assert np.array_equal(got[field], value), (b, field)
            slabs.append(slab)
        _assert_runs_identical(*slabs)


def _small_catalog_net(name):
    """``name`` at its largest order (3-5) with at most five stages."""
    for order in (5, 4, 3):
        net = NetworkSpec.catalog(name, n=order).resolve()
        if net.n_stages <= 5:
            return net
    raise AssertionError(f"{name} has no order with <= 5 stages")


def _walk_word(comp, k, cell, ports, eject):
    """One packet's route word, walked stage by stage in plain Python.

    ``ports[j, x]`` is the port-table entry the packet reads at stage
    ``j + 1``'s cell ``x``; ``-2`` takes port 0, and a ``-1`` entry or a
    dead link ends the route (field 0 from there on).  Returns the word
    and the gap where the packet turned unroutable (``None``: never).
    """
    if not comp.cells_alive[k, 0, cell]:
        return 0, None
    word = (eject + 1) << 2 * (comp.n_stages - 1)
    for j in range(comp.n_stages - 1):
        port = int(ports[j, cell])
        port = 0 if port == -2 else port
        if port == -1 or not comp.links[k, j, cell, port]:
            return word, j
        word |= (port + 1) << 2 * j
        cell = int(comp.child[j, cell, port])
    return word, None


def _fields_agree(got, want, stop, n):
    """Fields up to and including the first unroutable one, and the
    eject field."""
    upto = n - 1 if stop is None else stop + 1
    mask = (1 << 2 * upto) - 1 | 3 << 2 * (n - 1)
    return int(got) & mask == want & mask


def _route_word_slab(name, case):
    """``(net, masks)`` of a route-word case.

    ``None``: ``name`` at <= 5 stages on the four ``_mixed_samples``.
    ``"nested"``: the same, followed by nested seeded samples that mix
    dead cells and severed links (each seed's later counts kill a
    superset).  An int: ``name`` at that order, on ``_mixed_samples``.
    """
    if isinstance(case, int):
        net = NetworkSpec.catalog(name, n=case).resolve()
    else:
        net = _small_catalog_net(name)
    masks = fault_masks(net, _mixed_samples(net.n_stages))
    if case == "nested":
        nested = _nested_masks(net)
        nested = nested._replace(order=nested.order + len(masks.ranks))
        masks = FaultMasks(*map(np.concatenate, zip(masks, nested)))
    return net, masks


def _nested_masks(net):
    """The nested seeded samples a ``"nested"`` route-word case
    appends, built alone."""
    return masks_from_counts(net.n_stages, net.size, [
        (cells, links, seed) for seed in (3, 4)
        for cells, links in ((1, 0), (1, 2), (2, 2), (3, 5))
    ])


_ROUTE_WORD_CASES = (
    [pytest.param(name, None, id=name) for name in CATALOG_NAMES]
    + [pytest.param(name, "nested", id=f"{name}-nested")
       for name in CATALOG_NAMES]
    # Seven stages, 32 cells per stage, with ``-2`` entries.
    + [pytest.param("extra_stage_omega", 6, id="extra_stage_omega-6")]
)


class TestRouteWords:
    """The ``drop`` kernel's route words against a per-packet walk.

    The table is derived from ``ptabs`` and ``child`` by a backward
    recurrence over every (sample, cell, destination); here each word
    is walked again one packet at a time, with ``-2`` resolved to port
    0 and the link masks checked, on every catalog topology at five
    stages or fewer (the four flag-distinct samples of
    ``_mixed_samples``, alone and followed by nested seeded samples)
    and on one seven-stage network.  Fields past a packet's first
    unroutable stage are never read, so they are not compared.  Both
    kernels then run on every word width ``_word_dtype`` can pick, and
    on a nine-stage (``uint32``) slab, against the scalar loop.
    """

    @pytest.mark.parametrize("name, case", _ROUTE_WORD_CASES)
    def test_table_matches_per_packet_walk(self, name, case):
        net, masks = _route_word_slab(name, case)
        comp = CompileCache().compile(net, masks)
        words, unroutable = comp.route_words()
        K, n, size = len(comp.links), net.n_stages, net.size
        assert words.shape == (K, size, net.n_inputs + 1)
        assert words.dtype == np.uint16     # 2 bits per stage, n <= 8
        assert not words.flags.writeable
        assert not words[..., 0].any()      # the empty slot
        stops = set()
        for k in range(K):
            for cell in range(size):
                for t in range(net.n_inputs):
                    word, stop = _walk_word(
                        comp, k, cell, comp.ptabs[k, :, :, t >> 1], t & 1
                    )
                    got = words[k, cell, t + 1]
                    if word == 0:
                        assert got == 0, (k, cell, t)
                        continue
                    assert _fields_agree(got, word, stop, n), (k, cell, t)
                    stops.add(stop)
        assert unroutable == tuple(j in stops for j in range(n - 1))
        # The dead first-stage cell of sample 1 injects nothing.
        assert not words[1, 1].any() and words[0, 1, 1:].all()
        if case == "nested":
            self._assert_nested_rows(net, masks, comp)

    @staticmethod
    def _assert_nested_rows(net, masks, comp):
        # The words above are checked only against the slab's own
        # tables, so check that its rows are the samples named: the
        # nested rows are the nested stack alone, and none repeats an
        # explicit sample.
        alone = _nested_masks(net)
        first = len(masks.order) - len(alone.order)
        for got, want in zip(masks.alive(), alone.alive()):
            assert np.array_equal(got[first:], want)
        own = CompiledNetwork(net, alone)
        assert np.array_equal(comp.links[first:], own.links)
        assert np.array_equal(comp.ptabs[first:], own.ptabs)
        cells, links = masks.alive()
        for k in range(first, len(masks.order)):
            for e in range(first):
                assert not (
                    np.array_equal(cells[k], cells[e])
                    and np.array_equal(links[k], links[e])
                ), (k, e)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_fault_free_routes_have_no_unroutable_field(self, name):
        net = _small_catalog_net(name)
        words, unroutable = CompiledNetwork(net).route_words()
        assert unroutable == (False,) * (net.n_stages - 1)
        real = words[..., 1:]
        for j in range(net.n_stages):
            assert ((real >> 2 * j) & 3).all(), j

    def test_scheduled_words_match_a_walk_of_the_schedule(self):
        net, _, scheds = _mixed_slab("benes_schedule")
        samples = _mixed_samples(net.n_stages)
        comp = CompileCache().compile(net, fault_masks(net, samples))
        sample = np.array([2, 0, 3, 1, 1, 3, 0, 2], dtype=np.intp)
        words, unroutable = comp.scheduled_words(sample, scheds)
        assert words.shape == (2, len(sample), net.n_inputs)
        stops = set()
        for b, k in enumerate(sample):
            for src in range(net.n_inputs):
                # The schedule fixes the port whatever the cell.
                ports = np.repeat(scheds[b, :, src, None], net.size, axis=1)
                for eject in (0, 1):
                    word, stop = _walk_word(comp, k, src >> 1, ports, eject)
                    got = words[eject, b, src]
                    if word == 0:
                        assert got == 0, (b, src)
                        continue
                    assert _fields_agree(got, word, stop, net.n_stages)
                    stops.add(stop)
        assert unroutable == tuple(j in stops for j in range(net.n_stages - 1))
        assert any(unroutable)      # sample 2's dead links cut routes

    def test_block_runs_leave_the_table_underived(self):
        net, tmats, _ = _mixed_slab("extra_stage_omega")
        cache = CompileCache()
        masks = fault_masks(net, _mixed_samples(net.n_stages))
        comp = cache.compile(net, masks)
        sample = np.arange(tmats.shape[1], dtype=np.intp) % 4
        cycles = tmats.shape[0]
        numpy_backend.run_batch(comp, sample, tmats, None, cycles, False, True)
        assert comp._route_words is None
        numpy_backend.run_batch(comp, sample, tmats, None, cycles, True, True)
        table = comp.route_words()
        # A compile-cache hit reuses the derived table.
        assert cache.compile(net, masks).route_words() is table

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    @pytest.mark.parametrize("name, drop", [
        pytest.param("omega", True, id="omega-drop"),   # route words
        # Scheduled words, both kernels.
        pytest.param("benes_schedule", True, id="benes_schedule-drop"),
        pytest.param("benes_schedule", False, id="benes_schedule-block"),
    ])
    def test_wide_words_give_the_same_run(self, monkeypatch, dtype, name, drop):
        # Every width ``_word_dtype`` can pick carries the same fields,
        # and both kernels read any of them as the scalar loop runs.
        net, tmats, scheds = _mixed_slab(name)
        masks = fault_masks(net, _mixed_samples(net.n_stages))
        sample = np.arange(tmats.shape[1], dtype=np.intp) % 4
        cycles = tmats.shape[0]
        native = CompiledNetwork(net, masks)
        monkeypatch.setattr(compiled, "_word_dtype", lambda comp: dtype)
        forced = CompiledNetwork(net, masks)
        if scheds is None:
            words, flags = forced.route_words()
            want = native.route_words()
        else:
            words, flags = forced.scheduled_words(sample, scheds)
            want = native.scheduled_words(sample, scheds)
        assert words.dtype == dtype
        assert np.array_equal(words, want[0]) and flags == want[1]
        for drain in (False, True):
            _assert_runs_identical(
                numpy_backend.run_batch(
                    forced, sample, tmats, scheds, cycles, drop, drain
                ),
                numba_backend.run_batch(
                    native, sample, tmats, scheds, cycles, drop, drain,
                    python=True,
                ),
            )

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    def test_empty_field_reads_as_no_port(self, dtype):
        # ``block`` turns a scheduled field into a port with an unsigned
        # subtract cast to int8: field 0 (a dead link) must read -1.
        field = np.array([0, 1, 2, 3], dtype=dtype)
        key = np.empty(4, dtype=np.int8)
        np.subtract(field, 1, out=key, casting="unsafe")
        assert key.tolist() == [-1, 0, 1, 2]

    def test_nine_stage_faulted_slab_matches_scalar_loop(self):
        # Nine stages is the first ``uint32`` width; tier-1's other
        # oracle slabs stop at seven stages and ``uint16``.
        net = omega(9)
        faults = _sampled_faults(net, 6, 9, 21)
        assert compile_network(net, faults).route_words()[0].dtype == np.uint32
        tmats = _uniform_slab(net, 12, 2, 17)
        for drain in (False, True):
            _assert_runs_identical(
                *_slab_runs(net, faults, tmats, None, 12, True, drain)
            )

    @pytest.mark.parametrize("slots", [(1 << 15) - 1, 40_000])
    def test_slot_counts_never_wrap(self, slots):
        # The slot count's accumulator narrows to int16 only while a
        # full slot axis still fits it.
        mask = np.zeros((slots, 1, 3), dtype=bool)
        mask[:, 0, 0] = True
        mask[: slots - 5, 0, 1] = True
        got = numpy_backend._count_slots(mask)
        assert got.shape == (1, 3)
        assert got.tolist() == [[slots, slots - 5, 0]]


class TestSlabDtype:
    """The traffic slab's dtype, the narrowest signed integer of ``[-1, N)``.

    ``int16`` up to ``N = 2**15``, else ``int32``; pinned at the boundary
    without building such a network (``omega(15)``'s port tables alone
    would take about 3.7 GB).  A slab forced to ``int32`` must run as the
    ``int16`` one does, on both numpy kernels and the scalar loop.
    """

    def test_narrowest_dtype_holding_every_destination(self):
        assert sim_traffic._schedule_dtype(2) is np.int16
        assert sim_traffic._schedule_dtype(1 << 15) is np.int16
        assert sim_traffic._schedule_dtype(1 << 16) is np.int32
        for n_in in (1 << 15, 1 << 16):
            info = np.iinfo(sim_traffic._schedule_dtype(n_in))
            assert info.min <= -1 and n_in - 1 <= info.max
        # One more input than int16 can name.
        assert (1 << 15) > np.iinfo(np.int16).max

    @pytest.mark.parametrize("name, drop", [
        pytest.param("omega", True, id="omega-drop"),
        pytest.param("omega", False, id="omega-block"),
        pytest.param("benes_schedule", True, id="benes_schedule-drop"),
        pytest.param("benes_schedule", False, id="benes_schedule-block"),
    ])
    def test_int32_slab_gives_the_same_run(self, name, drop):
        net, tmats, scheds = _mixed_slab(name)
        comp = CompiledNetwork(
            net, fault_masks(net, _mixed_samples(net.n_stages))
        )
        sample = np.arange(tmats.shape[1], dtype=np.intp) % 4
        cycles = tmats.shape[0]
        narrow, wide = tmats.astype(np.int16), tmats.astype(np.int32)
        for drain in (False, True):
            args = (scheds, cycles, drop, drain)
            want = numba_backend.run_batch(
                comp, sample, narrow, *args, python=True
            )
            _assert_runs_identical(
                numba_backend.run_batch(comp, sample, wide, *args, python=True),
                want,
            )
            for slab in (narrow, wide):
                _assert_runs_identical(
                    numpy_backend.run_batch(comp, sample, slab, *args), want
                )

    @pytest.mark.parametrize("policy", ["drop", "block"])
    def test_forced_int32_spec_slab_gives_the_same_reports(
        self, monkeypatch, policy
    ):
        specs = [
            ScenarioSpec(
                network=NetworkSpec.catalog(name, n=4),
                traffic=TrafficSpec.of("hotspot", 0.8, fraction=0.3),
                sim=SimPolicy(cycles=24, policy=policy, drain=True),
                faults=FaultSpec(cells=2, links=1, seed=seed),
                seed=seed,
            )
            for name in ("omega", "flip") for seed in (0, 1)
        ]
        seen = []
        real = numpy_backend.run_batch

        def recording(comp, sample, tmats, *args):
            seen.append(tmats.dtype)
            return real(comp, sample, tmats, *args)

        monkeypatch.setattr(numpy_backend, "run_batch", recording)
        native = simulate_batch(specs, backend="numpy")
        for module in (sim_batch, sim_traffic):
            monkeypatch.setattr(
                module, "_schedule_dtype", lambda n_inputs: np.int32
            )
        assert simulate_batch(specs, backend="numpy") == native
        assert seen == [np.int16] * 2 + [np.int32] * 2


class TestPortTablesNameLiveLinks:
    """A port table never names a dead link: the backward sweep caps
    each arc by its link.  So route words derived from port tables
    need no link masks; only a port schedule's walk reads them."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_entries_name_live_links(self, name):
        net = _small_catalog_net(name)
        derived = fault_structure(
            net, fault_masks(net, _mixed_samples(net.n_stages))
        )
        links = derived.links[..., None, :]      # against (K, L, M, M)
        assert not links.all()
        live_f, live_g = links[..., 0], links[..., 1]
        ptabs = derived.ptabs
        assert not ((ptabs == 0) & ~live_f).any()
        assert not ((ptabs == 1) & ~live_g).any()
        assert not ((ptabs == -2) & ~(live_f & live_g)).any()


# ---------------------------------------------------------------------------
# report-level cross-backend identity (requires the fast extra)


@pytest.mark.skipif(
    not numba_available(),
    reason="numba backend not installed (pip install -e .[fast])",
)
class TestBackendsBitIdenticalReports:
    """numpy and numba backends: byte-identical SimReports (satellite)."""

    @settings(max_examples=25, deadline=None)
    @given(
        pattern=st.sampled_from(ALL_PATTERNS),
        policy=st.sampled_from(["drop", "block"]),
        drain=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_simulate_reports_identical(
        self, pattern, policy, drain, n_cells, n_links, seed
    ):
        net = omega(4)
        traffic = _traffic_for(pattern, 0.8, net.n_inputs, seed)
        faults = None
        if n_cells or n_links:
            faults = FaultSet.random(
                np.random.default_rng(seed ^ 0xFA117),
                net.n_stages,
                net.size,
                n_dead_cells=n_cells,
                n_dead_links=n_links,
            )
        kwargs = dict(
            cycles=40, policy=policy, seed=seed, faults=faults, drain=drain
        )
        a = simulate(net, traffic, backend="numpy", **kwargs).to_dict()
        b = simulate(net, traffic, backend="numba", **kwargs).to_dict()
        assert a == b

    def test_simulate_batch_reports_identical(self):
        net = omega(4)
        scns = [
            UniformTraffic(rate=0.9),
            _traffic_for("hotspot", 0.7, net.n_inputs, 1),
        ]
        a = simulate_batch(net, scns, cycles=30, backend="numpy")
        b = simulate_batch(net, scns, cycles=30, backend="numba")
        for ra, rb in zip(a, b):
            assert ra.to_dict() == rb.to_dict()

    def test_backend_argument_drives_the_run(self):
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.8),
            sim=SimPolicy(cycles=30),
        )
        a = simulate(spec, backend="numba").to_dict()
        b = simulate(spec, backend="numpy").to_dict()
        assert a == b


# ---------------------------------------------------------------------------
# compile cache: digest keying + per-cache budget


class TestCompileCacheKeying:
    def test_digest_is_structural(self):
        assert network_digest(omega(4)) == network_digest(omega(4))
        assert network_digest(omega(4)) != network_digest(omega(3))
        assert network_digest(omega(4)) != network_digest(benes(2))

    def test_key_separates_fault_sets(self):
        net = omega(3)
        fs = FaultSet(dead_cells=frozenset({(2, 0)}))
        assert compile_key(net) != compile_key(net, fault_masks(net, [fs]))
        assert compile_key(net, fault_masks(net, [fs])) == compile_key(
            net, fault_masks(net, [fs])
        )
        # A slab's key holds its samples in slab order.
        assert compile_key(net, fault_masks(net, [None, fs])) != compile_key(
            net, fault_masks(net, [fs, None])
        )

    def test_digest_is_hashed_once_per_network(self, monkeypatch):
        calls = []
        sha256 = hashlib.sha256

        def counting(*args):
            calls.append(args)
            return sha256(*args)

        monkeypatch.setattr(compiled.hashlib, "sha256", counting)
        net = omega(4)
        masks = fault_masks(net, [None])
        first = compile_key(net, masks)
        assert len(calls) == 1
        assert compile_key(net, masks) == first
        assert len(calls) == 1  # the second lookup hashes no table
        # An equal network rebuilt elsewhere hashes its own tables once
        # and lands on the same key.
        assert compile_key(omega(4), masks) == first
        assert len(calls) == 2

    def test_rebuilt_topologies_share_an_entry(self):
        cache = CompileCache()
        a = cache.compile(omega(5))
        b = cache.compile(omega(5))  # a distinct, equal object
        assert a is b
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_budget_is_configurable_and_evicts_lru(self):
        cache = CompileCache(2)
        assert cache.info()["maxsize"] == 2
        c3, c4 = cache.compile(omega(3)), cache.compile(omega(4))
        cache.compile(omega(5))          # evicts omega(3)
        assert cache.compile(omega(4)) is c4
        assert cache.compile(omega(3)) is not c3  # recompiled
        assert cache.info()["size"] == 2
