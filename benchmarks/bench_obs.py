"""Benchmarks (S5): observability overhead.

The :mod:`repro.obs` contract is **near-zero cost while disabled**:
every instrumented call site in the hot path is a guarded ``if
obs.enabled()`` or a ``with obs.span(...)`` that returns the shared
no-op span.  This suite pins that contract with numbers:

* ``bench_obs_disabled_overhead_on_sim`` — the guard.  It measures the
  per-site cost of the disabled path, scales it by a *generous* bound on
  the instrumented sites one ``simulate`` run crosses, and asserts the
  total stays under ``OVERHEAD_BUDGET`` (2%) of the ``bench_sim``
  reference workload's wall time.
* ``bench_obs_tracer_throughput`` — span events/sec of an enabled
  in-memory tracer, so a regression that makes *enabled* tracing slow
  enough to distort what it measures is also caught.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.networks.omega import omega
from repro.sim import UniformTraffic, compile_network, simulate

CYCLES = 50
#: Upper bound on guarded telemetry call sites one ``simulate`` run
#: crosses (4 spans + enabled() checks + the compile-cache mirror);
#: deliberately ~2x the real count so the guard stays conservative.
SITES_PER_RUN = 24
OVERHEAD_BUDGET = 0.02        # disabled telemetry: < 2% of bench_sim
LOOP = 1000


@pytest.fixture(scope="module")
def omega10():
    net = omega(10)  # 1024 terminal ports — the bench_sim workload
    compile_network(net)
    return net


def _disabled_sites(n: int) -> None:
    """``n`` round-trips through the disabled instrumentation path.

    Mirrors what the engine actually executes per guarded site while no
    tracer is installed: the ``enabled()`` check plus a ``with
    obs.span(...)`` block carrying attrs and a counter update on the
    shared no-op span.
    """
    for _ in range(n):
        if obs.enabled():  # pragma: no cover - tracing is off here
            raise AssertionError("tracer must be off in this bench")
        with obs.span("x", cycles=50, policy="drop") as sp:
            sp.add("offered", 1)


def bench_obs_disabled_overhead_on_sim(benchmark, timed_mean, omega10):
    assert not obs.enabled()
    # The reference workload: bench_sim's uniform full-load run (best
    # of 2, warm compile cache).
    walls = []
    for _ in range(2):
        t0 = time.perf_counter()
        simulate(omega10, UniformTraffic(rate=1.0), cycles=CYCLES, seed=1)
        walls.append(time.perf_counter() - t0)
    sim_wall = min(walls)

    benchmark(_disabled_sites, LOOP)
    per_site = timed_mean("disabled-overhead budget") / LOOP
    overhead = per_site * SITES_PER_RUN / sim_wall
    benchmark.extra_info["ns_per_disabled_site"] = round(per_site * 1e9, 1)
    benchmark.extra_info["sim_wall_ms"] = round(sim_wall * 1e3, 2)
    benchmark.extra_info["overhead_fraction"] = round(overhead, 6)
    assert overhead < OVERHEAD_BUDGET


def bench_obs_tracer_throughput(benchmark, timed_mean):
    def spans(n: int) -> int:
        with obs.tracing() as tr:
            for _ in range(n):
                with obs.span("unit", kind="bench") as sp:
                    sp.add("n", 1)
            return len(tr.events)

    count = benchmark(spans, LOOP)
    assert count == LOOP
    rate = LOOP / timed_mean("spans_per_sec")
    benchmark.extra_info["spans_per_sec"] = round(rate)
