"""repro — Independent Connections and Baseline-equivalent MINs.

A complete, tested reproduction of

    J.C. Bermond and J.M. Fourneau,
    "Independent connections: an easy characterization of
    baseline-equivalent multistage interconnection networks",
    ICPP 1988 / Theoretical Computer Science 64 (1989) 191–201.

Quickstart
----------
>>> from repro import omega, baseline, is_baseline_equivalent
>>> net = omega(4)                     # 4-stage Omega network (N = 16)
>>> is_baseline_equivalent(net)        # the paper's easy characterization
True
>>> from repro import find_isomorphism
>>> find_isomorphism(net, baseline(4)) is not None   # explicit witness
True

Package map
-----------
* :mod:`repro.core` — MI-digraphs, connections, independence, the P(i, j)
  properties and the characterization theorem.
* :mod:`repro.permutations` — link permutations and the PIPID field.
* :mod:`repro.networks` — the six classical networks, random generators
  and counterexamples.
* :mod:`repro.routing` — unique-path and bit-directed (destination-tag)
  routing.
* :mod:`repro.analysis` — buddy properties, delta/bidelta, classification.
* :mod:`repro.viz` — ASCII/DOT renderings (the paper's figures).
* :mod:`repro.experiments` — one runnable experiment per figure/claim.
* :mod:`repro.radix` — extension: the radix-k generalization the paper's
  conclusion points at (registered in the simulation catalog as
  ``omega_k``/``baseline_k``).
* :mod:`repro.spec` — the unified spec layer: typed, frozen
  :class:`~repro.spec.scenario.ScenarioSpec` descriptions of a run
  (network × traffic × faults × policy) with canonical-JSON round-trips
  and stable content digests, plus the pluggable
  :class:`~repro.spec.registry.Registry` objects behind the network and
  traffic catalogs (``@register_network`` / ``@register_traffic``).
* :mod:`repro.sim` — cycle-based traffic simulation: synthetic workloads,
  contention, fault injection and throughput/latency/blocking metrics;
  ``simulate(spec)`` / ``simulate_batch(specs)`` consume scenario specs
  (``python -m repro simulate`` on the command line).
* :mod:`repro.campaign` — parallel scenario sweeps: declarative grid
  specs expanded into digest-keyed scenario specs, a multiprocessing
  runner with a crash-safe append-only result store, and aggregation
  into comparison tables and the equivalence head-to-head
  (``python -m repro campaign`` on the command line).
"""

from repro import obs
from repro.analysis.spectrum import fingerprint, fingerprints_differ
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    aggregate_rows,
    aggregate_table,
    dumps_aggregate,
    expand_scenarios,
    head_to_head,
    head_to_head_table,
    load_records,
    run_campaign,
)
from repro.core import (
    AffineConnection,
    Connection,
    InvalidConnectionError,
    InvalidNetworkError,
    MIDigraph,
    ReproError,
    StageIndexError,
    UnknownEntryError,
    UnknownNetworkError,
    UnknownTrafficError,
    baseline_isomorphism,
    beta_map,
    component_stage_intersections,
    count_components,
    find_isomorphism,
    is_banyan,
    is_baseline_equivalent,
    is_independent,
    is_independent_definitional,
    p_one_star,
    p_profile,
    p_property,
    p_star_n,
    path_count_matrix,
    random_independent_connection,
    reverse_connection,
    satisfies_characterization,
    to_affine,
    verify_isomorphism,
)
from repro.core.isomorphism import automorphisms, count_automorphisms
from repro.io import (
    dump_campaign,
    dump_network,
    dump_report,
    dump_scenario,
    dumps_campaign,
    dumps_network,
    dumps_report,
    dumps_scenario,
    load_campaign,
    load_network,
    load_report,
    load_scenario,
    loads_campaign,
    loads_network,
    loads_report,
    loads_scenario,
)
from repro.networks import (
    CLASSICAL_NETWORKS,
    NETWORK_CATALOG,
    register_network,
    baseline,
    benes,
    build_network,
    classical_network,
    cycle_banyan,
    double_link_network,
    flip,
    from_connections,
    from_link_permutations,
    from_pipids,
    indirect_binary_cube,
    modified_data_manipulator,
    omega,
    random_independent_banyan_network,
    random_pipid_network,
    reverse_baseline,
)
from repro.routing.rearrangeable import benes_switch_settings, realize_on_benes
from repro.sim import (
    TRAFFIC_PATTERNS,
    BatchScenario,
    register_traffic,
    BitReversalTraffic,
    CompiledNetwork,
    FaultSet,
    HotspotTraffic,
    PermutationTraffic,
    SimReport,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    compile_network,
    fault_connectivity,
    permutation_port_schedule,
    schedule_from_switch_settings,
    simulate,
    simulate_batch,
)
from repro.spec import (
    FaultSpec,
    NetworkSpec,
    Param,
    Registry,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
    scenario_digest,
)
from repro.permutations import (
    Permutation,
    Pipid,
    as_pipid,
    bit_reversal,
    butterfly,
    inverse_shuffle,
    is_pipid,
    perfect_shuffle,
    pipid_connection,
    sub_shuffle,
)

__version__ = "1.0.0"

__all__ = [
    "AffineConnection",
    "BatchScenario",
    "BitReversalTraffic",
    "CLASSICAL_NETWORKS",
    "CampaignSpec",
    "CompiledNetwork",
    "Connection",
    "FaultSet",
    "FaultSpec",
    "HotspotTraffic",
    "InvalidConnectionError",
    "InvalidNetworkError",
    "MIDigraph",
    "NETWORK_CATALOG",
    "NetworkSpec",
    "Param",
    "Permutation",
    "PermutationTraffic",
    "Pipid",
    "Registry",
    "ReproError",
    "ResultStore",
    "ScenarioSpec",
    "SimPolicy",
    "SimReport",
    "StageIndexError",
    "TRAFFIC_PATTERNS",
    "TrafficPattern",
    "TrafficSpec",
    "TransposeTraffic",
    "UniformTraffic",
    "UnknownEntryError",
    "UnknownNetworkError",
    "UnknownTrafficError",
    "__version__",
    "aggregate_rows",
    "aggregate_table",
    "as_pipid",
    "automorphisms",
    "baseline",
    "baseline_isomorphism",
    "benes",
    "benes_switch_settings",
    "beta_map",
    "bit_reversal",
    "build_network",
    "butterfly",
    "classical_network",
    "compile_network",
    "component_stage_intersections",
    "count_automorphisms",
    "count_components",
    "cycle_banyan",
    "double_link_network",
    "dump_campaign",
    "dump_network",
    "dump_report",
    "dump_scenario",
    "dumps_aggregate",
    "dumps_campaign",
    "dumps_network",
    "dumps_report",
    "dumps_scenario",
    "expand_scenarios",
    "fault_connectivity",
    "find_isomorphism",
    "fingerprint",
    "fingerprints_differ",
    "flip",
    "from_connections",
    "from_link_permutations",
    "from_pipids",
    "head_to_head",
    "head_to_head_table",
    "indirect_binary_cube",
    "inverse_shuffle",
    "is_banyan",
    "is_baseline_equivalent",
    "is_independent",
    "is_independent_definitional",
    "is_pipid",
    "load_campaign",
    "load_network",
    "load_records",
    "load_report",
    "load_scenario",
    "loads_campaign",
    "loads_network",
    "loads_report",
    "loads_scenario",
    "modified_data_manipulator",
    "obs",
    "omega",
    "p_one_star",
    "p_profile",
    "p_property",
    "p_star_n",
    "path_count_matrix",
    "perfect_shuffle",
    "permutation_port_schedule",
    "pipid_connection",
    "random_independent_banyan_network",
    "random_independent_connection",
    "random_pipid_network",
    "realize_on_benes",
    "register_network",
    "register_traffic",
    "reverse_baseline",
    "reverse_connection",
    "run_campaign",
    "satisfies_characterization",
    "scenario_digest",
    "schedule_from_switch_settings",
    "simulate",
    "simulate_batch",
    "sub_shuffle",
    "to_affine",
    "verify_isomorphism",
]
