"""Traffic simulation over MI-digraphs — the dynamic side of the repo.

The paper's machinery decides what a network *is* (Banyan,
baseline-equivalent, …); this package measures what a network *does*
under load: a vectorized cycle-based packet simulator
(:mod:`repro.sim.engine`), synthetic workloads
(:mod:`repro.sim.traffic`), fault injection with reachability-aware
degradation (:mod:`repro.sim.faults`) and the resulting metrics
(:mod:`repro.sim.metrics`).

The traffic patterns and :class:`FaultSet` here are the engine form of a
run's inputs and have no dict form of their own: a run is written down
only through the spec layer (:mod:`repro.spec.scenario`) —
``TrafficSpec``, ``FaultSpec`` and the composite ``ScenarioSpec``,
which ``simulate(spec)`` runs and ``ScenarioSpec.from_spec`` rebuilds
from its wire dict.

Quickstart
----------
>>> from repro import omega
>>> from repro.sim import HotspotTraffic, simulate
>>> report = simulate(omega(5), HotspotTraffic(rate=0.8), cycles=200,
...                   seed=0, network_name="omega(5)")
>>> 0.0 < report.throughput <= 1.0
True
"""

from repro.sim.batch import BatchScenario, simulate_batch
from repro.sim.compiled import (
    CompiledNetwork,
    compile_cache_clear,
    compile_cache_info,
    compile_network,
    network_digest,
)
from repro.sim.kernels import (
    available_backends,
    numba_available,
    resolve_backend,
)
from repro.sim.engine import (
    permutation_port_schedule,
    schedule_from_switch_settings,
    simulate,
)
from repro.sim.faults import (
    FaultSet,
    FaultStructure,
    fault_connectivity,
    fault_masks,
    fault_structure,
    terminal_availability,
    terminal_reachability,
)
from repro.sim.metrics import SimReport, patel_profile
from repro.sim.traffic import (
    TRAFFIC_PATTERNS,
    BitReversalTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    register_traffic,
)

__all__ = [
    "TRAFFIC_PATTERNS",
    "BatchScenario",
    "BitReversalTraffic",
    "CompiledNetwork",
    "FaultSet",
    "FaultStructure",
    "HotspotTraffic",
    "PermutationTraffic",
    "SimReport",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "available_backends",
    "compile_cache_clear",
    "compile_cache_info",
    "compile_network",
    "fault_connectivity",
    "fault_masks",
    "fault_structure",
    "network_digest",
    "numba_available",
    "patel_profile",
    "permutation_port_schedule",
    "register_traffic",
    "resolve_backend",
    "schedule_from_switch_settings",
    "simulate",
    "simulate_batch",
    "terminal_availability",
    "terminal_reachability",
]
