"""Shared fixtures for the test suite.

Networks are built once per session where possible — the constructions are
deterministic, and most tests only read them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.networks.baseline import baseline
from repro.networks.catalog import CLASSICAL_NETWORKS
from repro.networks.omega import omega


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(0xB45E11)


@pytest.fixture(scope="session")
def baseline4():
    return baseline(4)


@pytest.fixture(scope="session")
def omega4():
    return omega(4)


@pytest.fixture(scope="session", params=sorted(CLASSICAL_NETWORKS))
def classical_name(request) -> str:
    """Parametrized over the six classical network names."""
    return request.param


@pytest.fixture(scope="session")
def classical_nets_n4():
    """All six classical networks at n = 4."""
    return {name: b(4) for name, b in CLASSICAL_NETWORKS.items()}


@pytest.fixture(params=["aggregate", "reliability"])
def reduce_records(request):
    """Each stored-record reduction, as records -> its canonical JSON.

    Both read records through one grouping, so a duplicate-record test
    parametrized over this fixture pins them to one behaviour.
    """
    from repro.campaign import (
        dumps_aggregate,
        dumps_reliability,
        reliability_report,
    )

    if request.param == "aggregate":
        return dumps_aggregate
    return lambda records: dumps_reliability(reliability_report(records))


@pytest.fixture()
def same_run_message():
    """``(record, other_hash)`` -> the error both reductions raise for
    ``record``'s run stored again under ``other_hash``, as a regex."""
    import re

    def message(record, other_hash: str) -> str:
        s = record["scenario"]
        return re.escape(
            "store holds two different results for "
            f"{s['topology']['label']} "
            f"faults={(s['fault_cells'], s['fault_links'])} "
            f"seed={s['seed']} (hashes {record['hash']} and {other_hash})"
        )

    return message
