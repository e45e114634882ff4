"""The raw kernel-run result container shared by every backend.

Split out of :mod:`repro.sim.kernels` so backend modules can import the
type without importing the selection layer (which imports the backends).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchRun"]


@dataclass
class BatchRun:
    """Raw outcome of a B-scenario batched kernel run.

    Per-scenario counter arrays of shape ``(B,)``, per-stage occupancy
    ``(n, B)``, and the latency counts ``(B, T)``: ``lat_counts[i, t]``
    is the number of scenario ``i``'s packets delivered ``t`` cycles
    after birth.  ``T`` is one past the longest latency in the slab, 0
    when nothing is delivered, so every backend returns the same shape.
    """

    offered: np.ndarray
    injected: np.ndarray
    delivered: np.ndarray
    dropped: np.ndarray
    unroutable: np.ndarray
    blocked_moves: np.ndarray
    total_hops: np.ndarray
    in_flight: np.ndarray
    drain_cycles: np.ndarray
    occupancy: np.ndarray
    lat_counts: np.ndarray
