"""Declarative sweep grids and their deterministic scenario expansion.

A :class:`CampaignSpec` is a small, JSON-serializable description of a
cartesian grid — topologies × stages × traffic patterns × rates × fault
counts × seeds — plus the scalar run parameters shared by every point
(cycles, contention policy, drain).  :func:`expand_scenarios` unrolls the
grid into a flat list of :class:`~repro.spec.scenario.ScenarioSpec`
values in a fixed order, so the same spec always yields the same
scenarios with the same digests.

Design points that make campaigns reproducible and comparable:

* **Scenarios are specs.**  A grid point expands to a frozen
  :class:`~repro.spec.scenario.ScenarioSpec` that names a topology
  (registry entry or saved ``repro-midigraph`` file), never holds a
  network object, so only small specs cross the worker pipe and the
  scenario digest is a stable function of the grid alone.
* **Fault seeds are topology-independent.**  The fault seed of a grid
  point is derived from the fault entry and the run seed only, and the
  fault sample depends on the network *shape* — so every same-shape
  topology in the grid is degraded by the *identical* fault set, the
  apples-to-apples comparison Theorem 1 makes meaningful.
* **File topologies are digest-pinned.**  A topology entry referencing a
  saved network JSON records a content digest at expansion time
  (:meth:`~repro.spec.scenario.NetworkSpec.pin`); resuming a campaign
  against a silently modified file fails loudly instead of mixing
  incompatible results.

A scenario's identity is :attr:`~repro.spec.scenario.ScenarioSpec.digest`
and its batch-compatibility key
:meth:`~repro.spec.scenario.ScenarioSpec.group_key`; both are functions
of the wire dict alone, so they agree across processes and releases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.errors import ReproError
from repro.spec.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
    is_file_entry,
    normalize_network_entry,
    normalize_traffic_entry,
)

__all__ = [
    "CampaignSpec",
    "expand_scenarios",
    "is_file_entry",
]

# Stride separating the fault-seed streams of consecutive fault-grid
# entries; any constant larger than every realistic seed axis works.
_FAULT_SEED_STRIDE = 1_000_003


def _normalize_faults(entry) -> tuple[int, int]:
    """Validate a fault-grid entry into ``(cells, links)`` counts."""
    if isinstance(entry, bool):
        raise ReproError(f"fault entry must be a count, got {entry!r}")
    if isinstance(entry, int):
        cells, links = entry, 0
    elif isinstance(entry, Mapping):
        extra = set(entry) - {"cells", "links"}
        if extra:
            raise ReproError(f"unexpected fault entry keys {sorted(extra)}")
        cells, links = entry.get("cells", 0), entry.get("links", 0)
        for count in (cells, links):
            if isinstance(count, bool) or not isinstance(count, int):
                raise ReproError(f"fault counts must be ints, got {entry!r}")
    else:
        raise ReproError(
            f"fault entry must be an int (dead cells) or a "
            f"{{'cells': ..., 'links': ...}} mapping, got {entry!r}"
        )
    if cells < 0 or links < 0:
        raise ReproError(f"fault counts must be >= 0, got {entry!r}")
    return cells, links


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep grid (the ``repro-campaign`` JSON document).

    Attributes
    ----------
    topologies:
        Topology entries: registry names
        (:data:`~repro.networks.catalog.NETWORK_CATALOG`), paths to
        saved ``repro-midigraph`` JSON files, or mappings
        ``{"name"|"file": ..., "label": ..., **params}`` (extra keys go
        to the registry schema, e.g. ``{"name": "omega_k", "k": 3}``).
    stages:
        Network orders for the catalog entries (file entries carry their
        own fixed shape and ignore this axis).
    traffic:
        Traffic entries: pattern names or ``{"name": ..., **kwargs}``.
    rates:
        Injection rates in ``(0, 1]``.
    faults:
        Fault-count entries: an int ``k`` (kill ``k`` switches) or
        ``{"cells": a, "links": b}``.
    seeds:
        Simulation seeds; each grid point runs once per seed.
    cycles, policy, drain:
        Scalar run parameters shared by every scenario, validated as a
        :class:`~repro.spec.scenario.SimPolicy`.
    fault_seed_base:
        Offset of the derived fault-seed streams (rarely needed; lets two
        campaigns sample disjoint fault populations).
    nested_faults:
        When True, every fault entry shares one fault-seed stream
        (``base + stride + seed``) instead of the per-entry streams, so —
        since a seed's samples are prefixes of one kill order (each
        count masks the components ranked below it in
        :func:`~repro.sim.faults.masks_from_counts`) — the fault sets at
        different counts are *nested*: the ``k``-fault draw of a seed is
        a subset of its ``k+1``-fault draw.  Reliability sweeps
        (:class:`repro.campaign.reliability.ReliabilitySweepSpec`) set
        this so availability is monotone non-increasing in the count by
        construction.
    """

    topologies: tuple = ("omega",)
    stages: tuple = (4,)
    traffic: tuple = ("uniform",)
    rates: tuple = (1.0,)
    faults: tuple = (0,)
    seeds: tuple = (0,)
    cycles: int = 200
    policy: str = "drop"
    drain: bool = False
    fault_seed_base: int = 0
    nested_faults: bool = False

    # Canonical entry forms, computed once by __post_init__.
    _topologies: tuple = field(init=False, repr=False, compare=False)
    _traffic: tuple = field(init=False, repr=False, compare=False)
    _faults: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        def _tup(name: str, value) -> tuple:
            if isinstance(value, (str, Mapping)) or not isinstance(
                value, Sequence
            ):
                value = (value,)
            if len(value) == 0:
                raise ReproError(f"campaign spec axis {name!r} is empty")
            return tuple(value)

        object.__setattr__(self, "topologies", _tup("topologies", self.topologies))
        object.__setattr__(self, "stages", _tup("stages", self.stages))
        object.__setattr__(self, "traffic", _tup("traffic", self.traffic))
        object.__setattr__(self, "rates", _tup("rates", self.rates))
        object.__setattr__(self, "faults", _tup("faults", self.faults))
        object.__setattr__(self, "seeds", _tup("seeds", self.seeds))
        object.__setattr__(
            self,
            "_topologies",
            tuple(normalize_network_entry(t) for t in self.topologies),
        )
        object.__setattr__(
            self,
            "_traffic",
            tuple(normalize_traffic_entry(t) for t in self.traffic),
        )
        object.__setattr__(
            self,
            "_faults",
            tuple(_normalize_faults(f) for f in self.faults),
        )
        if len(set(self._faults)) != len(self._faults):
            # [2, {"cells": 2}] normalizes to the same counts twice.
            raise ReproError("duplicate fault entries in campaign spec")
        for n in self.stages:
            if not isinstance(n, int) or isinstance(n, bool) or n < 2:
                raise ReproError(f"stages entries must be ints >= 2, got {n!r}")
        for rate in self.rates:
            if not 0.0 < float(rate) <= 1.0:
                raise ReproError(f"rates must be in (0, 1], got {rate!r}")
        for seed in self.seeds:
            if (
                not isinstance(seed, int)
                or isinstance(seed, bool)
                or not 0 <= seed < _FAULT_SEED_STRIDE
            ):
                # The upper bound keeps the per-fault-entry seed streams
                # disjoint (fault_seed = base + stride·entry + seed).
                raise ReproError(
                    f"seeds must be ints in [0, {_FAULT_SEED_STRIDE}), "
                    f"got {seed!r}"
                )
        if len(set(self.seeds)) != len(self.seeds):
            raise ReproError("duplicate seeds in campaign spec")
        if (
            not isinstance(self.fault_seed_base, int)
            or isinstance(self.fault_seed_base, bool)
            or self.fault_seed_base < 0
        ):
            raise ReproError(
                "fault_seed_base must be an int >= 0, "
                f"got {self.fault_seed_base!r}"
            )
        if not isinstance(self.nested_faults, bool):
            raise ReproError(
                f"nested_faults must be a bool, got {self.nested_faults!r}"
            )
        SimPolicy(cycles=self.cycles, policy=self.policy, drain=self.drain)

    @property
    def n_scenarios(self) -> int:
        """Grid cardinality (file topologies ignore the stages axis)."""
        n_cat = sum(1 for t in self._topologies if t["kind"] == "catalog")
        n_file = len(self._topologies) - n_cat
        per_topo = (
            len(self._traffic) * len(self.rates) * len(self._faults)
            * len(self.seeds)
        )
        return (n_cat * len(self.stages) + n_file) * per_topo

    def to_dict(self) -> dict:
        """The spec as a JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "topologies": [
                dict(t) if isinstance(t, Mapping) else t
                for t in self.topologies
            ],
            "stages": list(self.stages),
            "traffic": [
                dict(t) if isinstance(t, Mapping) else t
                for t in self.traffic
            ],
            "rates": [float(r) for r in self.rates],
            "faults": [
                dict(f) if isinstance(f, Mapping) else f
                for f in self.faults
            ],
            "seeds": list(self.seeds),
            "cycles": self.cycles,
            "policy": self.policy,
            "drain": self.drain,
            "fault_seed_base": self.fault_seed_base,
            "nested_faults": self.nested_faults,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (with validation)."""
        known = {
            "topologies", "stages", "traffic", "rates", "faults",
            "seeds", "cycles", "policy", "drain", "fault_seed_base",
            "nested_faults",
        }
        extra = set(doc) - known
        if extra:
            raise ReproError(f"unknown campaign spec fields {sorted(extra)}")
        kwargs = {k: doc[k] for k in known & set(doc)}
        return cls(**kwargs)


def _grid_networks(
    spec: CampaignSpec, base: Path | None
) -> list[NetworkSpec]:
    """The topology axis as pinned, labelled :class:`NetworkSpec` values."""
    networks: list[NetworkSpec] = []
    for doc in spec._topologies:
        if doc["kind"] == "file":
            networks.append(NetworkSpec.from_entry(doc).pin(base))
            continue
        for n in spec.stages:
            if "label" in doc:
                # A custom label covers a single stage verbatim; across a
                # stages axis each instance needs its own identity.
                label = (
                    doc["label"]
                    if len(spec.stages) == 1
                    else f"{doc['label']}({n})"
                )
                networks.append(
                    NetworkSpec.from_entry({**doc, "label": label}, n=n)
                )
            else:
                # No custom label: NetworkSpec derives name(n[,k=…]).
                networks.append(NetworkSpec.from_entry(doc, n=n))
    labels = [net.label for net in networks]
    if len(set(labels)) != len(labels):
        # Aggregation identifies topologies by label; e.g. two files
        # sharing a basename must be told apart with explicit labels.
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise ReproError(
            f"duplicate topology labels {dup}; set distinct 'label' "
            "entries"
        )
    return networks


def expand_scenarios(
    spec: CampaignSpec, *, base_dir: str | Path | None = None
) -> list[ScenarioSpec]:
    """Unroll a spec into its deterministic, duplicate-free scenario list.

    ``base_dir`` anchors relative file-topology paths (the CLI passes the
    spec file's directory).  Order is the row-major grid order —
    topologies, stages, traffic, rates, faults, seeds — and is part of
    the contract: a spec maps to one scenario sequence, always.
    """
    base = Path(base_dir) if base_dir is not None else None
    networks = _grid_networks(spec, base)
    sim = SimPolicy(
        cycles=spec.cycles, policy=spec.policy, drain=spec.drain
    )
    # Specs are frozen, so each (traffic entry, rate) pair builds one
    # TrafficSpec shared by every grid point that uses it — validation
    # (which instantiates the pattern once) stays per axis entry, not
    # per scenario.
    traffic_specs = [
        [
            TrafficSpec.from_spec({**traffic, "rate": float(rate)})
            for rate in spec.rates
        ]
        for traffic in spec._traffic
    ]
    scenarios: list[ScenarioSpec] = []
    seen: set[str] = set()
    for network in networks:
        for traffic_row in traffic_specs:
            for traffic_spec in traffic_row:
                for fi, (cells, links) in enumerate(spec._faults):
                    for seed in spec.seeds:
                        fault_seed = 0
                        if cells or links:
                            # Nested sweeps pin one stream for every fault
                            # entry (the fi = 0 stream, never zero), so a
                            # seed's draws at growing counts are prefixes
                            # of one kill order.
                            stride = 1 if spec.nested_faults else fi + 1
                            fault_seed = (
                                spec.fault_seed_base
                                + _FAULT_SEED_STRIDE * stride
                                + int(seed)
                            )
                        scn = ScenarioSpec(
                            network=network,
                            traffic=traffic_spec,
                            sim=sim,
                            faults=FaultSpec(
                                cells=cells, links=links, seed=fault_seed
                            ),
                            seed=int(seed),
                        )
                        if scn.digest in seen:
                            raise ReproError(
                                f"duplicate grid point {scn.to_spec()} "
                                "(repeated axis entry?)"
                            )
                        seen.add(scn.digest)
                        scenarios.append(scn)
    return scenarios
