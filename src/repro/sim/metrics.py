"""Simulation metrics: the :class:`SimReport` produced by every run.

The report stores raw conserved counters (``offered = delivered + dropped
+ unroutable + in_flight`` always holds) plus latency and utilization
summaries; the headline rates — throughput, accepted/offered load,
blocking probability — are derived properties so they can never drift out
of sync with the counts.  Reports serialize to JSON through
:func:`repro.io.dumps_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

__all__ = ["SimReport", "latency_summary", "patel_profile"]


def latency_summary(counts) -> tuple[float, float]:
    """``(mean, p99)`` of delivered-packet latencies given as counts.

    ``counts[t]`` packets were delivered ``t`` cycles after birth (a row
    of :attr:`BatchRun.lat_counts <repro.sim.kernels.BatchRun>`, or
    ``np.bincount`` of an array of latencies).  ``(0.0, 0.0)`` when no
    packet was delivered.  The mean is the exact integer latency sum
    over the packet count.  The p99 is ``np.percentile(lat, 99)`` bit
    for bit: numpy's default ``linear`` rule, virtual index ``v = (n -
    1) * 0.99``, the two order statistics around it read from the
    cumulative counts, and its ``a + d·t`` / ``b − d·(1 − t)``
    interpolation.
    """
    cum = np.cumsum(counts)
    n = int(cum[-1]) if cum.size else 0
    if n == 0:
        return 0.0, 0.0
    mean = int(np.dot(counts, np.arange(cum.size))) / n
    v = (n - 1) * (99 / 100)
    lo = int(v)
    # Order statistic k is the first age whose cumulative count passes
    # k; at n = 1 both statistics are the one latency (v = 0).
    a, b = np.searchsorted(cum, [lo, min(lo + 1, n - 1)], side="right")
    a, b, t = float(a), float(b), v - lo
    d = b - a
    return mean, b - d * (1 - t) if t >= 0.5 else a + d * t


def patel_profile(rate: float, n: int) -> tuple[float, ...]:
    """Patel's per-stage link loads ``(p_0, …, p_n)`` of a 2×2 delta network.

    ``p_0 = rate`` and ``p_{j+1} = 1 − (1 − p_j/2)²``: a switch whose two
    inputs carry independent loads ``p_j``, each packet picking either
    output with probability 1/2, loads each output with ``p_{j+1}``
    (Patel, IEEE Trans. Comput. C-30(10), 1981).  The paper's
    characterization is what makes the inputs independent: in a banyan
    network with independent connections the two inputs of a switch are
    fed by disjoint sets of sources.  So under ``drop`` with fault-free
    uniform Bernoulli traffic, ``p_j`` is the expected
    ``stage_utilization[j]`` of every baseline-equivalent network, and
    ``p_n / p_0`` its delivered fraction.  Multipath networks (extra
    stages, Beneš) fall outside the model.
    """
    loads = [float(rate)]
    for _ in range(n):
        loads.append(1.0 - (1.0 - loads[-1] / 2.0) ** 2)
    return tuple(loads)


@dataclass(frozen=True)
class SimReport:
    """Aggregate result of one cycle-based simulation run.

    Attributes
    ----------
    network:
        Display name of the simulated network.
    n_stages, size:
        Network shape (``size`` cells per stage, ``2·size`` terminals).
    cycles:
        Number of injection cycles simulated.
    drain_cycles:
        Extra cycles run after injection stopped (``drain=True``).
    policy:
        Contention policy, ``"drop"`` or ``"block"``.
    traffic:
        Traffic pattern label, e.g. ``"hotspot(f=0.25,targets=[0])"``.
    rate:
        Offered Bernoulli injection rate per source per cycle.
    seed:
        RNG seed of the run.
    offered:
        Packets generated by the traffic process (back-pressured sources
        generate nothing, so this can sit below ``rate·cycles·N``).
    injected:
        Packets that entered the first stage.
    delivered:
        Packets ejected at their destination output link.
    dropped:
        Packets lost to switch contention (``drop`` policy only).
    unroutable:
        Packets lost because no live path to their destination existed
        (fault-induced, or a dead source cell).
    blocked_moves:
        Block events under the ``block`` policy (a packet held in place
        for one cycle); 0 under ``drop``.
    in_flight:
        Packets still inside the network or source buffers at the end.
    total_hops:
        Packet stage-advances performed (a full traversal is
        ``n_stages`` hops) — the work unit of the performance benchmarks.
    mean_latency, p99_latency:
        Delivered-packet latency in cycles, injection draw to ejection
        (``n_stages`` exactly when never blocked).
    stage_utilization:
        Per-stage mean buffer occupancy over the injection cycles.
    elapsed:
        Wall-clock seconds of the run; ``0.0`` when loaded from a
        document that does not carry it.
    timings:
        Per-phase wall-time breakdown in seconds (``traffic``,
        ``compile``, ``run``, ``total``), populated from span data when
        a :mod:`repro.obs` tracer is active and ``None`` otherwise.

    ``elapsed`` and ``timings`` are telemetry, not identity: excluded
    from equality and from :meth:`to_dict` (and hence from every store
    and aggregate), so a report is a pure function of its scenario and
    reruns, traced or not, are byte-identical.
    """

    network: str
    n_stages: int
    size: int
    cycles: int
    drain_cycles: int
    policy: str
    traffic: str
    rate: float
    seed: int
    offered: int
    injected: int
    delivered: int
    dropped: int
    unroutable: int
    blocked_moves: int
    in_flight: int
    total_hops: int
    mean_latency: float
    p99_latency: float
    stage_utilization: tuple[float, ...]
    elapsed: float = field(default=0.0, compare=False)
    timings: Mapping | None = field(default=None, compare=False)

    # -- derived rates -----------------------------------------------------

    @property
    def n_inputs(self) -> int:
        """Number of terminal links ``N = 2·size``."""
        return 2 * self.size

    @property
    def offered_load(self) -> float:
        """Offered packets per source per injection cycle."""
        return self.offered / (self.cycles * self.n_inputs)

    @property
    def accepted_load(self) -> float:
        """Injected packets per source per injection cycle."""
        return self.injected / (self.cycles * self.n_inputs)

    @property
    def throughput(self) -> float:
        """Delivered packets per source per injection cycle."""
        return self.delivered / (self.cycles * self.n_inputs)

    @property
    def blocking_probability(self) -> float:
        """Fraction of offered packets lost to contention or faults."""
        if self.offered == 0:
            return 0.0
        return (self.dropped + self.unroutable) / self.offered

    # -- presentation ------------------------------------------------------

    def summary(self) -> str:
        """A deterministic multi-line report (``elapsed`` excluded)."""
        util = " ".join(f"{u:.3f}" for u in self.stage_utilization)
        lines = [
            f"SimReport: {self.network}  N={self.n_inputs}  "
            f"stages={self.n_stages}",
            f"  traffic={self.traffic}  rate={self.rate:g}  "
            f"policy={self.policy}  cycles={self.cycles}"
            + (f"+{self.drain_cycles}" if self.drain_cycles else "")
            + f"  seed={self.seed}",
            f"  offered={self.offered}  injected={self.injected}  "
            f"delivered={self.delivered}  dropped={self.dropped}  "
            f"unroutable={self.unroutable}  in-flight={self.in_flight}",
            f"  throughput           {self.throughput:.4f}",
            f"  offered/accepted load {self.offered_load:.4f} / "
            f"{self.accepted_load:.4f}",
            f"  blocking probability {self.blocking_probability:.4f}",
            f"  latency mean/p99     {self.mean_latency:.2f} / "
            f"{self.p99_latency:.2f} cycles",
            f"  stage utilization    {util}",
            f"  packet-stage hops    {self.total_hops}",
        ]
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The compared fields as a JSON-ready dict (telemetry excluded).

        ``compare=False`` fields never serialize: stores and archived
        reports are byte-identical across reruns, traced or not.
        """
        doc = {
            f.name: getattr(self, f.name) for f in fields(self) if f.compare
        }
        doc["stage_utilization"] = list(self.stage_utilization)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SimReport":
        """Rebuild a report from :meth:`to_dict` output."""
        data = dict(doc)
        data["stage_utilization"] = tuple(
            float(u) for u in data["stage_utilization"]
        )
        return cls(**data)
