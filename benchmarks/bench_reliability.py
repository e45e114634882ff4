"""Benchmarks: reliability sweep and aggregation throughput.

Two rates are tracked.  ``bench_reliability_sweep`` times the full
pipeline — a nested-fault campaign over omega vs its extra-stage
variant plus the reliability reduction — in scenarios per second, the
same unit the campaign benches use.  ``bench_reliability_report`` times
the pure reduction over a pre-run store in records per second; its
structural-availability part draws each (topology, fault seed) kill
order once and runs one bottleneck sweep of the kill ranks per
(topology, fault seed, link count), every cell count one compare
against it — so a regression here usually means the sample grouping or
the shared backward sweep changed.
"""

from __future__ import annotations

import itertools

import pytest

from repro.campaign import (
    ReliabilitySweepSpec,
    load_records,
    reliability_report,
    run_campaign,
)

_counter = itertools.count()

# 2 topologies x 7 fault counts x 4 draws = 56 scenarios, CI-sized.
SPEC = ReliabilitySweepSpec(
    networks=("omega", "extra_stage_omega"),
    stages=4,
    rate=0.8,
    draws=4,
    max_faults=6,
    cycles=100,
)

MIN_SCENARIOS_PER_SEC = 5.0  # sanity floor, far below any healthy run
MIN_RECORDS_PER_SEC = 200.0


def _n_scenarios() -> int:
    return len(SPEC.networks) * (SPEC.max_faults + 1) * SPEC.draws


def _sweep_and_reduce(tmp_path) -> dict:
    store = tmp_path / f"rel-{next(_counter)}.jsonl"
    summary = run_campaign(SPEC.to_campaign(), store)
    assert summary["ran"] == _n_scenarios()
    report = reliability_report(
        load_records(store),
        threshold=SPEC.threshold,
        baseline=SPEC.baseline_label(),
    )
    assert report["summary"]
    return report


def bench_reliability_sweep(benchmark, timed_mean, tmp_path):
    benchmark(_sweep_and_reduce, tmp_path)
    rate = _n_scenarios() / timed_mean("scenarios/sec floor")
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["scenarios_per_sec"] = round(rate, 1)
    assert rate >= MIN_SCENARIOS_PER_SEC


@pytest.fixture(scope="module")
def stored_records(tmp_path_factory) -> list:
    store = tmp_path_factory.mktemp("reliability") / "sweep.jsonl"
    run_campaign(SPEC.to_campaign(), store)
    return load_records(store)


def bench_reliability_report(benchmark, timed_mean, stored_records):
    report = benchmark(
        reliability_report, stored_records, threshold=SPEC.threshold
    )
    assert len(report["curves"]) == 2 * (SPEC.max_faults + 1)
    rate = len(stored_records) / timed_mean("records/sec floor")
    benchmark.extra_info["backend"] = "numpy"
    benchmark.extra_info["records_per_sec"] = round(rate, 1)
    assert rate >= MIN_RECORDS_PER_SEC
