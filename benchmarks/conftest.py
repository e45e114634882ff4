"""Shared fixtures for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only

Each experiment id from DESIGN.md §4 has a bench regenerating its kernel;
``bench_scaling.py`` carries the A4 size sweeps.  ``--benchmark-disable``
runs every bench once, untimed, as a quick correctness pass: a bench's
asserts run and its timing gates skip (see :func:`timed_mean`).
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0xBE7C4)


@pytest.fixture()
def timed_mean(benchmark):
    """The benchmark's mean round time in seconds, for a timing gate.

    ``timed_mean("speedup gate")`` returns ``benchmark.stats.stats.mean``;
    under ``--benchmark-disable`` there are no stats, so it skips the
    bench instead, naming the gate it leaves unevaluated.  Call it after
    the bench's correctness asserts, so a disabled run still checks them.
    """

    def mean(gate: str) -> float:
        if benchmark.stats is None:
            pytest.skip(f"timing disabled: {gate} not evaluated")
        return benchmark.stats.stats.mean

    return mean
