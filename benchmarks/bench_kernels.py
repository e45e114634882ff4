"""Benchmarks (S4): kernel backend throughput.

One slab — 64 uniform-load scenarios on the 1024-port Omega network —
pushed through each registered kernel backend of
:mod:`repro.sim.kernels`, reporting ``scenarios_per_sec`` per backend
and, for the fused numba backend, ``speedup`` over the NumPy
backend's stage-major ``drop`` kernel.  Target: the
fused JIT loop runs the slab **>= 3x** faster than the NumPy backend,
with bit-identical reports — the oracle rides along in the numba bench.

The numba bench is skip-marked when the optional package is absent
(``pip install -e .[fast]``); the NumPy bench always runs, so the
reference backend's throughput stays tracked on every installation.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.networks.omega import omega
from repro.sim import (
    BatchScenario,
    UniformTraffic,
    compile_network,
    numba_available,
    simulate_batch,
)

BATCH = 64
CYCLES = 50
NUMBA_SPEEDUP_TARGET = 3.0    # fused JIT loop vs the NumPy batch path


@pytest.fixture(scope="module")
def omega10():
    net = omega(10)  # 1024 terminal ports
    compile_network(net)  # every backend measures from a warm compile
    return net


@pytest.fixture(scope="module")
def scenarios():
    return [
        BatchScenario(UniformTraffic(rate=1.0), seed=i)
        for i in range(BATCH)
    ]


@pytest.fixture(scope="module")
def numpy_rate(omega10, scenarios) -> float:
    """NumPy-backend slab throughput in scenarios/sec (best of 2).

    Elapsed time comes from span data — each pass runs under an
    in-memory tracer and reads its ``run_batch`` root span — so the
    fixture measures exactly what a ``--trace`` of the run reports.
    """
    times = []
    for _ in range(2):
        with obs.tracing() as tr:
            simulate_batch(
                omega10, scenarios, cycles=CYCLES, backend="numpy"
            )
            totals = obs.analyze.span_stats(tr.events)
        times.append(totals["run_batch"]["total_s"])
    return BATCH / min(times)


def bench_kernels_numpy_64x1024(benchmark, timed_mean, omega10, scenarios):
    benchmark(
        simulate_batch, omega10, scenarios, cycles=CYCLES, backend="numpy"
    )
    rate = BATCH / timed_mean("scenarios_per_sec")
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 1)


@pytest.mark.skipif(
    not numba_available(),
    reason="numba backend not installed (pip install -e .[fast])",
)
def bench_kernels_numba_64x1024(
    benchmark, timed_mean, omega10, scenarios, numpy_rate
):
    # One untimed call pays the lazy JIT compile before measurement.
    warm = simulate_batch(
        omega10, scenarios, cycles=CYCLES, backend="numba"
    )
    reports = benchmark(
        simulate_batch, omega10, scenarios, cycles=CYCLES, backend="numba"
    )
    # The oracle ride-along: fused results are the NumPy results.
    want = simulate_batch(
        omega10, scenarios[:1], cycles=CYCLES, backend="numpy"
    )[0].to_dict()
    for got_report in (warm[0], reports[0]):
        assert got_report.to_dict() == want
    rate = BATCH / timed_mean("numba speedup gate")
    benchmark.extra_info["backend"] = "numba"
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 1)
    benchmark.extra_info["speedup"] = round(rate / numpy_rate, 2)
    assert rate >= NUMBA_SPEEDUP_TARGET * numpy_rate
