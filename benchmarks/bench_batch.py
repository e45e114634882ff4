"""Benchmarks (S3): batched simulation throughput.

The batched engine's unit of work is the *scenario slab*: B same-shape
scenarios pushed through one backend kernel call
(:func:`repro.sim.batch.simulate_batch`).  Tracked figures, all in
``extra_info`` (shared emitter schema — ``backend``,
``scenarios_per_sec``, ``speedup``): batched ``hops_per_sec`` and
``scenarios_per_sec``, and ``speedup`` — the measured ratio over running
the same scenarios through per-scenario
:func:`~repro.sim.engine.simulate` calls.
Target from this PR onward: >= 4x scenarios/sec for a 64-scenario
uniform-load batch on the 1024-port Omega network, with the batched
reports bit-identical to the sequential ones.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.networks.omega import omega
from repro.sim import (
    BatchScenario,
    FaultSet,
    UniformTraffic,
    compile_network,
    simulate,
    simulate_batch,
)

BATCH = 64
CYCLES = 50
SPEEDUP_TARGET = 4.0          # batched vs sequential scenarios/sec
HOPS_TARGET = 1_000_000       # batched path must beat the engine target


@pytest.fixture(scope="module")
def omega10():
    net = omega(10)  # 1024 terminal ports
    compile_network(net)  # both paths measure from a warm compile cache
    return net


@pytest.fixture(scope="module")
def scenarios():
    return [
        BatchScenario(UniformTraffic(rate=1.0), seed=i)
        for i in range(BATCH)
    ]


@pytest.fixture(scope="module")
def sequential_rate(omega10, scenarios) -> float:
    """Per-scenario ``simulate`` throughput in scenarios/sec (best of 2).

    Pinned to the NumPy backend: this benchmark tracks the scenario-axis
    batching win of the reference kernels (``bench_kernels.py`` owns the
    cross-backend comparison), so ``auto`` resolving to numba on a
    ``fast`` install must not change what is being measured.

    Elapsed time comes from span data — each pass runs under an
    in-memory tracer and sums its ``simulate`` root spans — instead of
    an ad-hoc ``perf_counter`` wrap, so this fixture measures exactly
    what a ``--trace`` of the same run reports.
    """
    times = []
    for _ in range(2):
        with obs.tracing() as tr:
            for s in scenarios:
                simulate(
                    omega10, s.traffic, cycles=CYCLES, seed=s.seed,
                    backend="numpy",
                )
            totals = obs.analyze.span_stats(tr.events)
        times.append(totals["simulate"]["total_s"])
    return BATCH / min(times)


def bench_batch_uniform_64x1024(
    benchmark, timed_mean, omega10, scenarios, sequential_rate
):
    reports = benchmark(
        simulate_batch, omega10, scenarios, cycles=CYCLES, backend="numpy"
    )
    # The oracle ride-along: slab results are the sequential results.
    want = simulate(
        omega10, scenarios[0].traffic, cycles=CYCLES,
        seed=scenarios[0].seed, backend="numpy",
    ).to_dict()
    assert reports[0].to_dict() == want
    mean = timed_mean("hops and speedup gates")
    rate = BATCH / mean
    hops = sum(r.total_hops for r in reports) / mean
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 1)
    benchmark.extra_info["hops_per_sec"] = round(hops)
    benchmark.extra_info["speedup"] = round(rate / sequential_rate, 2)
    assert hops >= HOPS_TARGET
    assert rate >= SPEEDUP_TARGET * sequential_rate


def bench_batch_faulted_16x1024(benchmark, timed_mean, omega10, rng):
    faults = FaultSet.random(
        rng, omega10.n_stages, omega10.size, n_dead_cells=8, n_dead_links=16
    )
    scns = [
        BatchScenario(UniformTraffic(rate=0.9), seed=i) for i in range(16)
    ]
    reports = benchmark(
        simulate_batch, omega10, scns, cycles=CYCLES, faults=faults,
        backend="numpy",
    )
    assert all(r.unroutable > 0 for r in reports)
    mean = timed_mean("scenarios_per_sec")
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["scenarios_per_sec"] = round(len(scns) / mean, 1)
