"""Unified spec layer: typed scenario specs and pluggable registries.

The single place the repo describes *what to run*.  A
:class:`~repro.spec.scenario.ScenarioSpec` composes a
:class:`~repro.spec.scenario.NetworkSpec`,
:class:`~repro.spec.scenario.TrafficSpec`,
:class:`~repro.spec.scenario.FaultSpec` and
:class:`~repro.spec.scenario.SimPolicy`; it round-trips through
canonical JSON, carries the stable content digest the campaign store is
keyed by, and names its network and traffic through the
:class:`~repro.spec.registry.Registry` objects behind the network and
traffic catalogs.  Running a spec (``simulate``, ``simulate_batch``, a
campaign) builds its slab in :mod:`repro.sim.batch`: the registries
resolve the network and traffic, and
:func:`~repro.sim.faults.masks_from_counts` masks the fault sample.

Quickstart
----------
>>> from repro import NetworkSpec, ScenarioSpec, TrafficSpec, simulate
>>> spec = ScenarioSpec(network=NetworkSpec.catalog("omega", n=5),
...                     traffic=TrafficSpec.of("uniform", rate=0.8),
...                     seed=0)
>>> report = simulate(spec)
>>> report.network
'omega(5)'

Extending the catalogs is decorator registration (see
``examples/custom_topology_plugin.py``)::

    from repro import register_network

    @register_network("my_net", params={"n": int})
    def my_net(n):
        ...
"""

from repro.spec.registry import Param, Registry, RegistryEntry
from repro.spec.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
    canonical_json,
    is_file_entry,
    normalize_network_entry,
    normalize_traffic_entry,
    scenario_digest,
)

__all__ = [
    "FaultSpec",
    "NetworkSpec",
    "Param",
    "Registry",
    "RegistryEntry",
    "ScenarioSpec",
    "SimPolicy",
    "TrafficSpec",
    "canonical_json",
    "is_file_entry",
    "normalize_network_entry",
    "normalize_traffic_entry",
    "scenario_digest",
]
